//! Property tests pinning the fleet's statistical and state-machine
//! contracts:
//!
//! - Merged per-device log-linear histograms report quantiles within
//!   12.5% above a sorted-sample oracle over the pooled samples, for
//!   samples up to `u64::MAX`, and merging is order-independent (fleet
//!   quantiles do not depend on device enumeration order).
//! - Seeded backoff delays are byte-identical per seed,
//!   non-decreasing over the robust router's whole dispatch budget
//!   (also where the schedule meets the cap), at most the jittered cap,
//!   and past the schedule the larger of the cap and the last
//!   scheduled delay.
//! - The circuit breaker never moves `Open → Closed` without a
//!   successful half-open probe, for any interleaving of outcomes.
//! - The online drift profiler is deterministic (same samples, same
//!   estimates), stays exactly inside the static
//!   [`heterollm::admit::HeteroMirror`] cost interval on undisturbed
//!   devices, and converges monotonically toward the true slowdown
//!   under a constant brownout.
//! - Per-priority-class accounting balances under both routing arms:
//!   `offered == served + shed + lost`, and the class penalty is
//!   exactly the shed-weight charges plus the lost-penalty charges.
//! - `FleetEventLog::normalize` orders each window's events exactly
//!   like a stable `sort_by_key(FleetEvent::sort_key)`, on shuffled
//!   logs with forced timestamp and whole-key ties, and
//!   `is_normalized` tells that order apart from any other.
//! - Event logs holding every `FleetEvent` variant round-trip through
//!   compact and pretty JSON, the typed writer and the `Value` renderer
//!   emit the same bytes, and mutated or truncated log text is an `Ok`
//!   or an `Err` from the reader, never a panic.
//! - The JSON codec's fast paths (`json_codec_*`): integers are written
//!   as `format!` writes them; a number reads to the same `Number`, or
//!   the same error, as the reference kept here (scan, check JSON's
//!   number grammar, then `str::parse`);
//!   and a log pair reads to the same value from compact text, pretty
//!   text, and text whose keys are shuffled, duplicated, escaped,
//!   dropped (`default` fields) or joined by unknown keys.

use hetero_fleet::{
    calibrate_profiles_with_socs, BreakerCause, BreakerConfig, BreakerState, CircuitBreaker,
    DeviceProfile, FleetConfig, FleetEvent, FleetEventLog, FleetLogPair, FleetSim, OnlineProfiler,
    Priority, ProfileCause, RetryPolicy, RolloutLogSet, RouterPolicy, CALIB_DECODE, CALIB_PROMPT,
    DRIFT_RESOLVE_THRESHOLD_PPM, EVENT_LOG_VERSION, MAX_DISPATCHES, PPM,
};
use hetero_soc::SimTime;
use heterollm::admit::HeteroMirror;
use heterollm::obs::metrics::exact_quantile;
use heterollm::obs::{Histogram, MetricsRegistry};
use heterollm::ModelConfig;
use proptest::prelude::*;
use serde::__private::{Number, Reader};
use serde_json::Value;
use std::sync::OnceLock;

/// Calibrated Table-1 profiles paired with the static `[lo, hi]`
/// admission bound for the calibration request shape on the same SoC
/// config — computed once (engine calibration + mirror pricing are
/// deterministic but not free).
fn profiles_with_bounds() -> &'static [(DeviceProfile, u64, u64)] {
    static CACHE: OnceLock<Vec<(DeviceProfile, u64, u64)>> = OnceLock::new();
    CACHE.get_or_init(|| {
        let model = ModelConfig::internlm_1_8b();
        let (profiles, socs) = calibrate_profiles_with_socs(&model);
        profiles
            .into_iter()
            .zip(socs)
            .map(|(p, cfg)| {
                let mut mirror = HeteroMirror::with_soc_config(&model, cfg);
                let bound = mirror.prefill_bound(CALIB_PROMPT)
                    + mirror.decode_bound(CALIB_PROMPT, CALIB_DECODE);
                (p, bound.lo.as_nanos(), bound.hi.as_nanos())
            })
            .collect()
    })
}

fn arb_device_samples() -> impl Strategy<Value = Vec<Vec<u64>>> {
    // A handful of devices, each sample drawn at a random octave
    // (`raw >> shift`), so values span 0 to `u64::MAX` and the pooled
    // distribution is genuinely multi-modal.
    let sample = (0u64..=u64::MAX, 0u32..64).prop_map(|(raw, shift)| raw >> shift);
    proptest::collection::vec(proptest::collection::vec(sample, 1..40), 1..8)
}

fn arb_retry_policy() -> impl Strategy<Value = RetryPolicy> {
    (2u32..8, 1u64..10_000_000, 2u32..6, 0u32..100).prop_map(
        |(max_attempts, base_ns, factor, jitter_pct)| RetryPolicy {
            max_attempts,
            base: SimTime::from_nanos(base_ns),
            factor,
            cap: SimTime::from_nanos(base_ns.saturating_mul(50)),
            jitter_pct,
            timeout: SimTime::from_millis(250),
        },
    )
}

/// Backoff delays over the robust router's whole budget: same seed
/// byte-identical, never decreasing over every attempt
/// `0..MAX_DISPATCHES`, each at most the cap plus its jitter span, and
/// past the schedule the larger of the cap and the last scheduled
/// delay.
fn check_backoff_contracts(
    policy: &RetryPolicy,
    seed: u64,
    request_id: u64,
) -> Result<(), TestCaseError> {
    let delays = |seed| -> Vec<SimTime> {
        (0..MAX_DISPATCHES)
            .map(|attempt| policy.delay_after(seed, request_id, attempt))
            .collect()
    };
    let a = delays(seed);
    prop_assert_eq!(&a, &delays(seed), "same seed must replay byte-identically");
    prop_assert!(
        a.windows(2).all(|w| w[0] <= w[1]),
        "delays decreased: {a:?}"
    );
    let span = policy.cap.as_nanos() / 100 * u64::from(policy.jitter_pct);
    let jittered_cap = policy.cap + SimTime::from_nanos(span);
    prop_assert!(a.iter().all(|&d| d <= jittered_cap), "over the cap: {a:?}");
    let (schedule, tail) = a.split_at(policy.max_attempts.saturating_sub(1) as usize);
    let after = schedule
        .last()
        .map_or(policy.cap, |&last| last.max(policy.cap));
    prop_assert!(
        tail.iter().all(|&d| d == after),
        "past the schedule: {tail:?}"
    );
    Ok(())
}

/// Factor 5 with `cap = 50 × base` reaches the cap on the schedule's
/// fourth delay, and jitter lifts that delay above the bare cap: the
/// delays after the schedule must not dip back to it.
#[test]
fn backoff_never_dips_where_the_schedule_meets_the_cap() {
    let policy = RetryPolicy {
        max_attempts: 5,
        base: SimTime::from_millis(2),
        factor: 5,
        cap: SimTime::from_millis(100),
        jitter_pct: 20,
        timeout: SimTime::from_millis(250),
    };
    let mut lifted = 0;
    for request_id in 0..64 {
        check_backoff_contracts(&policy, 42, request_id).expect("backoff contracts hold");
        lifted += usize::from(policy.delay_after(42, request_id, MAX_DISPATCHES - 1) > policy.cap);
    }
    assert!(
        lifted > 0,
        "no request's last scheduled delay rose above the cap"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fleet quantiles from merged per-device histograms bound the
    /// sorted-sample oracle over the pooled samples from above, within
    /// the stated 12.5%, for samples up to `u64::MAX`.
    #[test]
    fn merged_quantiles_match_sorted_oracle(per_device in arb_device_samples()) {
        let mut merged = Histogram::default();
        for samples in &per_device {
            let mut h = Histogram::default();
            for &s in samples {
                h.observe(SimTime::from_nanos(s));
            }
            merged.merge(&h);
        }
        let mut pooled: Vec<u64> = per_device.concat();
        pooled.sort_unstable();
        prop_assert_eq!(merged.count(), pooled.len() as u64);
        for (num, den) in [(50u64, 100u64), (99, 100), (999, 1000), (1, 1)] {
            let got = merged.quantile_upper_ns(num, den);
            let want = exact_quantile(&pooled, num, den);
            prop_assert!(
                want <= got && got <= want.saturating_add(want / 8),
                "q={}/{}: histogram said {}, oracle {}",
                num, den, got, want
            );
        }
    }

    /// Histogram merging is order-independent: forward, reverse, and
    /// re-associated merge orders yield identical registries.
    #[test]
    fn histogram_merge_is_order_independent(per_device in arb_device_samples()) {
        let regs: Vec<MetricsRegistry> = per_device
            .iter()
            .enumerate()
            .map(|(d, samples)| {
                let mut r = MetricsRegistry::new();
                r.incr("served", samples.len() as u64);
                r.incr(&format!("device_{d}"), 1);
                for &s in samples {
                    r.observe("ttft_ns", SimTime::from_nanos(s));
                }
                r
            })
            .collect();
        let mut forward = MetricsRegistry::new();
        for r in &regs {
            forward.merge(r);
        }
        let mut reverse = MetricsRegistry::new();
        for r in regs.iter().rev() {
            reverse.merge(r);
        }
        // Re-associated: pairwise-merge halves, then combine.
        let mid = regs.len() / 2;
        let (mut left, mut right) = (MetricsRegistry::new(), MetricsRegistry::new());
        for r in &regs[..mid] {
            left.merge(r);
        }
        for r in &regs[mid..] {
            right.merge(r);
        }
        left.merge(&right);
        prop_assert_eq!(forward.snapshot(), reverse.snapshot());
        prop_assert_eq!(forward.snapshot(), left.snapshot());
    }

    /// Backoff delays over the robust router's whole budget keep
    /// their contracts ([`check_backoff_contracts`]).
    #[test]
    fn backoff_schedule_contracts(
        policy in arb_retry_policy(),
        seed in 0u64..u64::MAX,
        request_id in 0u64..u64::MAX,
    ) {
        check_backoff_contracts(&policy, seed, request_id)?;
    }

    /// For any outcome interleaving, the breaker reaches `Closed`
    /// only from `HalfOpen` via a probe success, and every departure
    /// from `Open` goes through `HalfOpen`.
    #[test]
    fn breaker_never_skips_half_open(
        threshold in 1u32..5,
        cooldown_ms in 1u64..500,
        // Event stream: (advance_ms, outcome) where outcome is
        // success / failure / bare poll.
        events in proptest::collection::vec((0u64..300, 0u8..3), 1..60),
    ) {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: threshold,
            cooldown: SimTime::from_millis(cooldown_ms),
        });
        let mut now = SimTime::ZERO;
        for (advance, outcome) in events {
            now += SimTime::from_millis(advance);
            match outcome {
                0 => b.record_success(now),
                1 => b.record_failure(now),
                _ => {
                    b.poll(now);
                }
            }
        }
        for t in b.transitions() {
            prop_assert!(
                !(t.from == BreakerState::Open && t.to == BreakerState::Closed),
                "illegal Open → Closed at {:?}", t.at
            );
            if t.to == BreakerState::Closed {
                prop_assert_eq!(t.from, BreakerState::HalfOpen);
                prop_assert_eq!(t.cause, BreakerCause::ProbeSuccess);
            }
            if t.from == BreakerState::Open {
                prop_assert_eq!(t.to, BreakerState::HalfOpen);
            }
        }
        // Transition log timestamps never run backwards.
        prop_assert!(b.transitions().windows(2).all(|w| w[0].at <= w[1].at));
    }

    /// The drift profiler is a pure function of its sample stream:
    /// identically-fed profilers agree estimate-for-estimate (the
    /// byte-identical-log guarantee rests on this).
    #[test]
    fn profiler_is_deterministic_over_its_samples(
        expected_ns in 1_000_000u64..100_000_000_000,
        calib in proptest::collection::vec(1_000u64..1 << 50, 0..8),
        stream in proptest::collection::vec((1_000u64..1 << 50, 1_000u64..1 << 40), 0..60),
    ) {
        let mut a = OnlineProfiler::new(expected_ns);
        let mut b = OnlineProfiler::new(expected_ns);
        a.calibrate(&calib);
        b.calibrate(&calib);
        prop_assert_eq!(a.estimate_ppm(), b.estimate_ppm());
        for &(observed, expected) in &stream {
            a.observe(observed, expected);
            b.observe(observed, expected);
            prop_assert_eq!(a.estimate_ppm(), b.estimate_ppm());
            prop_assert_eq!(a.estimated_service_ns(), b.estimated_service_ns());
        }
        prop_assert_eq!(&a, &b);
    }

    /// On an undisturbed device, the profiler's service estimate stays
    /// inside the static admission-mirror `[lo, hi]` interval for the
    /// calibration shape, no matter what on-profile request shapes it
    /// observes. (The calibrated per-token latencies are quotients of
    /// a real engine run the mirror brackets; the only slack allowed
    /// is their truncation loss — under one token's worth each.)
    #[test]
    fn undisturbed_profilers_stay_inside_the_static_interval(
        profile_sel in 0usize..64,
        shapes in proptest::collection::vec((1usize..2048, 1usize..256), 0..40),
    ) {
        let table = profiles_with_bounds();
        let (profile, lo, hi) = &table[profile_sel % table.len()];
        let expected = profile.service_estimate(CALIB_PROMPT, CALIB_DECODE).as_nanos();
        let mut p = OnlineProfiler::new(expected);
        // Quiet few-shot calibration, then quiet traffic: every
        // observation matches the static profile exactly.
        p.calibrate(&[expected; 4]);
        for &(prompt, decode) in &shapes {
            let e = profile.service_estimate(prompt, decode).as_nanos();
            p.observe(e, e);
        }
        prop_assert_eq!(p.estimate_ppm(), PPM, "undisturbed estimate drifted");
        let est = p.estimated_service_ns();
        let slack = (CALIB_PROMPT + CALIB_DECODE) as u64;
        prop_assert!(
            est + slack >= *lo && est <= *hi,
            "estimate {est} ns outside static interval [{lo}, {hi}] for {}",
            profile.soc
        );
        prop_assert!(!p.needs_resolve(DRIFT_RESOLVE_THRESHOLD_PPM));
    }

    /// Under a constant brownout the EWMA climbs monotonically toward
    /// the observed slowdown, never overshoots it, and lands within
    /// integer-fixed-point slack of it — so the drift re-solve trigger
    /// fires exactly when the sustained slowdown warrants it.
    #[test]
    fn constant_brownout_converges_monotonically(
        expected_ns in 1_000_000u64..10_000_000_000,
        slowdown_ppm in 1_300_000u64..4_000_000,
    ) {
        let observed = ((u128::from(expected_ns) * u128::from(slowdown_ppm))
            / u128::from(PPM)) as u64;
        // The quantized target the profiler can actually see.
        let target = observed.saturating_mul(PPM) / expected_ns;
        let mut p = OnlineProfiler::new(expected_ns);
        let mut prev = p.estimate_ppm();
        for step in 0..128 {
            p.observe(observed, expected_ns);
            let est = p.estimate_ppm();
            prop_assert!(est >= prev, "EWMA regressed at step {step}: {prev} -> {est}");
            prop_assert!(est <= target, "EWMA overshot the constant slowdown");
            prev = est;
        }
        prop_assert!(
            target - prev <= 16,
            "did not converge: est {prev} vs target {target}"
        );
        prop_assert!(p.needs_resolve(DRIFT_RESOLVE_THRESHOLD_PPM));
    }
}

proptest! {
    // Full fleet replays per case: keep the case count low.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Per-priority-class accounting balances for both routing arms
    /// at any seed and scale: every offered request is served, shed,
    /// or lost — nothing double-counted, nothing dropped — and the
    /// class penalty is exactly `shed × weight × slo_ttft + lost ×
    /// lost_penalty`, where the shed weight is 4×/2×/1× for
    /// interactive/standard/batch.
    #[test]
    fn class_accounting_balances_for_both_arms(
        seed in 1u64..u64::MAX,
        devices in 8usize..24,
        requests in 60usize..200,
    ) {
        let sim = FleetSim::new(FleetConfig::standard(seed, devices, requests));
        for policy in [RouterPolicy::Robust, RouterPolicy::RoundRobin] {
            let (arm, log) = sim.run_events(policy);
            let lost_penalty = log.deadline_ns;
            let (mut offered, mut served, mut shed, mut lost) = (0u64, 0u64, 0u64, 0u64);
            for (idx, class) in arm.by_priority.iter().enumerate() {
                prop_assert_eq!(
                    class.offered,
                    class.served + class.shed + class.lost,
                    "{} class `{}` leaks requests: {:?}",
                    arm.policy, class.class, class
                );
                prop_assert!(class.slo_met <= class.served);
                let shed_weight = 4u64 >> idx;
                prop_assert_eq!(
                    class.penalty_ns,
                    class.shed * shed_weight * arm.slo_ttft_ns
                        + class.lost * lost_penalty,
                    "{} class `{}` penalty mispriced",
                    arm.policy, class.class
                );
                offered += class.offered;
                served += class.served;
                shed += class.shed;
                lost += class.lost;
            }
            // Class totals reconcile with the arm-level counters.
            prop_assert_eq!(offered, arm.offered);
            prop_assert_eq!(served, arm.served);
            prop_assert_eq!(shed, arm.shed);
            prop_assert_eq!(lost, arm.lost);
            prop_assert_eq!(arm.offered, requests as u64);
        }
    }
}

proptest! {
    // Two full fleet replays (serial + parallel) per case: keep the
    // case count low.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The determinism-under-parallelism contract, at the library
    /// level: a [`FleetSim`] built with any `jobs > 1` produces
    /// byte-identical serialized [`hetero_fleet::ArmReport`]s and
    /// canonically-ordered [`hetero_fleet::FleetEventLog`]s to the
    /// serial `jobs = 1` build, for random seeds, fleet sizes, and
    /// worker counts. The executor merges calibration session
    /// results by index, so thread scheduling must never leak into
    /// the world.
    #[test]
    fn parallel_fleet_is_byte_identical_to_serial(
        seed in 1u64..u64::MAX,
        devices in 4usize..16,
        requests in 40usize..120,
        jobs in 2usize..8,
    ) {
        let config = FleetConfig::standard(seed, devices, requests);
        let serial = FleetSim::with_jobs(config.clone(), 1);
        let parallel = FleetSim::with_jobs(config, jobs);
        prop_assert_eq!(
            serial.calibration().devices.clone(),
            parallel.calibration().devices.clone(),
            "per-device calibration depends on worker count {}", jobs
        );
        let (cmp_s, pair_s) = serial.compare_events();
        let (cmp_p, pair_p) = parallel.compare_events();
        prop_assert_eq!(
            serde_json::to_string(&cmp_s).unwrap(),
            serde_json::to_string(&cmp_p).unwrap(),
            "ArmReport JSON diverged at jobs {}", jobs
        );
        prop_assert_eq!(
            serde_json::to_string(&pair_s).unwrap(),
            serde_json::to_string(&pair_p).unwrap(),
            "FleetEventLog pair diverged at jobs {}", jobs
        );
    }
}

/// Random fields of one event: `(kind, a, b, c, n, s)`.
type EventFields = (usize, u64, u64, u64, u32, usize);

fn arb_event_fields() -> impl Strategy<Value = EventFields> {
    (
        0usize..15,
        0u64..=u64::MAX,
        0u64..=u64::MAX,
        0u64..=u64::MAX,
        0u32..=u32::MAX,
        0usize..1 << 10,
    )
}

/// The event of variant `kind` (all 15 are reachable) built from
/// random fields.
fn event(kind: usize, (_, a, b, c, n, s): EventFields) -> FleetEvent {
    let at = SimTime(a);
    let priority = Priority::ALL[s % 3];
    let states = [
        BreakerState::Closed,
        BreakerState::Open,
        BreakerState::HalfOpen,
    ];
    let causes = [
        BreakerCause::FailureThreshold,
        BreakerCause::CooldownElapsed,
        BreakerCause::ProbeSuccess,
        BreakerCause::ProbeFailure,
    ];
    let profile_causes = [
        ProfileCause::Calibration,
        ProfileCause::Drift,
        ProfileCause::CanaryApply,
        ProfileCause::Rollback,
    ];
    match kind {
        0 => FleetEvent::Offered {
            at,
            req: b,
            priority,
            prompt_tokens: c,
            decode_tokens: u64::from(n),
        },
        1 => FleetEvent::CensusRefresh { at, healthy: b },
        2 => FleetEvent::Shed {
            at,
            req: b,
            priority,
        },
        3 => FleetEvent::Dispatch {
            at,
            req: b,
            device: c,
            attempt: n,
            priority,
        },
        4 => FleetEvent::DispatchFail {
            at,
            req: b,
            device: c,
            attempt: n,
        },
        5 => FleetEvent::Retry {
            at,
            req: b,
            attempt: n,
            delay: SimTime(c),
        },
        6 => FleetEvent::Complete {
            at,
            req: b,
            device: c,
            ttft: SimTime(b ^ c),
            tpot: SimTime(u64::from(n)),
        },
        7 => FleetEvent::Lost { at, req: b },
        8 => FleetEvent::Breaker {
            at,
            device: b,
            from: states[s % 3],
            to: states[s / 3 % 3],
            cause: causes[s / 9 % 4],
        },
        9 => FleetEvent::FaultOpen { at, storm: n },
        10 => FleetEvent::FaultClose { at, storm: n },
        11 => FleetEvent::RolloutStage {
            at,
            stage: n,
            pct: s as u32,
            canary: b,
        },
        12 => FleetEvent::ProfileUpdate {
            at,
            device: b,
            slowdown_ppm: c,
            revision: u64::from(n),
            cause: profile_causes[s % 4],
        },
        13 => FleetEvent::Promote { at, stage: n },
        _ => FleetEvent::Rollback { at, stage: n },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `normalize` compares timestamps before building the full key;
    /// the order must be the stable `sort_by_key(sort_key)` one within
    /// each window, the windows kept in place. Four timestamps and
    /// three field values force ties on `at` and on whole keys of
    /// events that differ outside the key, so stability shows.
    /// `is_normalized` holds exactly when the log already is in that
    /// order.
    #[test]
    fn normalize_matches_the_stable_sort_key_oracle(
        raw in proptest::collection::vec(
            (arb_event_fields(), 0u64..4, 0u64..3, 0u64..=u64::MAX),
            1..120,
        ),
        cuts in proptest::collection::btree_set(1u64..120, 0..4),
    ) {
        let mut shuffled: Vec<(u64, FleetEvent)> = raw
            .iter()
            .map(|&((kind, ..), at, v, order)| (order, event(kind, (kind, at, v, v ^ 1, (order % 2) as u32, (order >> 8) as usize % 1024))))
            .collect();
        shuffled.sort_by_key(|&(order, _)| order);
        let events: Vec<FleetEvent> = shuffled.into_iter().map(|(_, ev)| ev).collect();
        let mut windows = vec![0];
        windows.extend(cuts.into_iter().filter(|&c| c < events.len() as u64));
        let mut oracle = Vec::new();
        for (k, &start) in windows.iter().enumerate() {
            let end = windows.get(k + 1).map_or(events.len(), |&e| e as usize);
            let mut window = events[start as usize..end].to_vec();
            window.sort_by_key(FleetEvent::sort_key);
            oracle.extend(window);
        }
        let mut log = FleetEventLog {
            version: EVENT_LOG_VERSION,
            seed: 0,
            policy: "robust".to_string(),
            devices: 1,
            requests: 1,
            slo_ttft_ns: 1,
            deadline_ns: 1,
            census_interval_ns: 1,
            windows,
            events,
        };
        prop_assert_eq!(log.check_windows(), Ok(()));
        prop_assert_eq!(log.is_normalized(), log.events == oracle);
        log.normalize();
        prop_assert!(log.is_normalized());
        prop_assert_eq!(log.events, oracle);
    }
}

/// Policy names, including ones that need JSON escapes.
const POLICIES: [&str; 6] = [
    "robust",
    "round-robin",
    "q\"uote\\slash",
    "tab\tnew\nline",
    "\u{1}ctl\u{1f}",
    "caf\u{e9} \u{1F600}",
];

/// A log whose first 15 events are one of each variant, then random
/// ones, under a drawn `windows` header (well-formed or not: the
/// reader does not judge it).
fn arb_log() -> impl Strategy<Value = FleetEventLog> {
    (
        (0u32..=u32::MAX, 0u64..=u64::MAX, 0usize..POLICIES.len()),
        (0u64..1 << 20, 0u64..1 << 20, 0u64..=u64::MAX),
        (
            0u64..=u64::MAX,
            0u64..=u64::MAX,
            proptest::collection::vec(0u64..=u64::MAX, 0..4),
        ),
        proptest::collection::vec(arb_event_fields(), 15..40),
    )
        .prop_map(
            |(
                (version, seed, policy),
                (devices, requests, slo),
                (deadline, census, windows),
                raw,
            )| {
                FleetEventLog {
                    version,
                    seed,
                    policy: POLICIES[policy].to_string(),
                    devices,
                    requests,
                    slo_ttft_ns: slo,
                    deadline_ns: deadline,
                    census_interval_ns: census,
                    windows,
                    events: raw
                        .into_iter()
                        .enumerate()
                        .map(|(i, f)| event(if i < 15 { i } else { f.0 }, f))
                        .collect(),
                }
            },
        )
}

fn arb_pair() -> impl Strategy<Value = FleetLogPair> {
    (arb_log(), arb_log()).prop_map(|(robust, naive)| FleetLogPair { robust, naive })
}

/// Apply byte edits `(position, op, byte)` to `text`: overwrite,
/// insert, delete, or truncate. Edits that split a multi-byte
/// character are repaired lossily, so the result is still a `str`.
fn mutate(text: &str, edits: &[(usize, usize, u8)]) -> String {
    const BYTES: &[u8] = b"{}[]:,\"\\-+.0123456789eEtrufalsn \\u";
    let mut bytes = text.as_bytes().to_vec();
    for &(pos, op, b) in edits {
        if bytes.is_empty() {
            break;
        }
        let i = pos % bytes.len();
        let b = BYTES[usize::from(b) % BYTES.len()];
        match op {
            0 => bytes[i] = b,
            1 => bytes.insert(i, b),
            2 => {
                bytes.remove(i);
            }
            _ => bytes.truncate(i),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Typed values survive compact and pretty JSON, and the typed
    /// writer agrees byte for byte with rendering the parsed `Value`.
    #[test]
    fn event_logs_round_trip_and_match_the_value_renderer(pair in arb_pair()) {
        let compact = serde_json::to_string(&pair).unwrap();
        let pretty = serde_json::to_string_pretty(&pair).unwrap();
        prop_assert_eq!(&serde_json::from_str::<FleetLogPair>(&compact).unwrap(), &pair);
        prop_assert_eq!(&serde_json::from_str::<FleetLogPair>(&pretty).unwrap(), &pair);
        let value: serde_json::Value = serde_json::from_str(&compact).unwrap();
        prop_assert_eq!(&serde_json::to_string(&value).unwrap(), &compact);
        prop_assert_eq!(&serde_json::to_string_pretty(&value).unwrap(), &pretty);
        let value: serde_json::Value = serde_json::from_str(&pretty).unwrap();
        prop_assert_eq!(&serde_json::to_string(&value).unwrap(), &compact);
    }

    /// Mutated log text is untrusted input: every reader returns `Ok`
    /// or `Err`, and never panics.
    #[test]
    fn mutated_event_logs_never_panic_the_reader(
        pair in arb_pair(),
        edits in proptest::collection::vec((0usize..usize::MAX, 0usize..4, 0u8..=u8::MAX), 1..6),
        pretty in proptest::bool::ANY,
    ) {
        let text = if pretty {
            serde_json::to_string_pretty(&pair).unwrap()
        } else {
            serde_json::to_string(&pair).unwrap()
        };
        let text = mutate(&text, &edits);
        let _ = serde_json::from_str::<FleetLogPair>(&text);
        let _ = serde_json::from_str::<RolloutLogSet>(&text);
        let _ = serde_json::from_str::<serde_json::Value>(&text);
    }
}

proptest! {
    // Each case parses every prefix of a log pair: keep the count low.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Every strict prefix of a log pair's text, cut anywhere (inside
    /// escapes and numbers included), is an `Err` and never a panic.
    #[test]
    fn truncated_event_logs_are_errors(mut pair in arb_pair(), pretty in proptest::bool::ANY) {
        pair.robust.policy = POLICIES.concat();
        let text = if pretty {
            serde_json::to_string_pretty(&pair).unwrap()
        } else {
            serde_json::to_string(&pair).unwrap()
        };
        for end in (0..text.len()).filter(|&end| text.is_char_boundary(end)) {
            prop_assert!(serde_json::from_str::<FleetLogPair>(&text[..end]).is_err());
        }
    }
}

/// Whether `literal` follows JSON's number grammar: an optional `-`, an
/// integer part with no leading zero, then an optional fraction and
/// exponent that each hold at least one digit.
fn json_grammar(literal: &str) -> bool {
    let all_digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
    let unsigned = literal.strip_prefix('-').unwrap_or(literal);
    let (mantissa, exponent) = match unsigned.find(['e', 'E']) {
        Some(at) => (&unsigned[..at], Some(&unsigned[at + 1..])),
        None => (unsigned, None),
    };
    let (int, frac) = match mantissa.split_once('.') {
        Some((int, frac)) => (int, Some(frac)),
        None => (mantissa, None),
    };
    all_digits(int)
        && (int == "0" || !int.starts_with('0'))
        && frac.is_none_or(all_digits)
        && exponent.is_none_or(|e| all_digits(e.strip_prefix(['+', '-']).unwrap_or(e)))
}

/// The number reader before the integer fast path: scan the literal,
/// reject it unless it follows [`json_grammar`], then `str::parse` it
/// as `u64`, then `i64`, then `f64`. An integer that fits neither
/// integer type is a `BigInt`. Returns the result and the literal's
/// length. `text` starts with `-` or a digit.
fn reference_number(text: &str) -> (Result<Number, String>, usize) {
    let bytes = text.as_bytes();
    let mut end = 1;
    let mut is_float = false;
    while let Some(&b) = bytes.get(end) {
        match b {
            b'0'..=b'9' => {}
            b'.' | b'e' | b'E' | b'+' | b'-' => is_float = true,
            _ => break,
        }
        end += 1;
    }
    let literal = &text[..end];
    let invalid = || "invalid number at byte 0".to_string();
    let result = if !json_grammar(literal) {
        Err(invalid())
    } else if is_float {
        literal
            .parse::<f64>()
            .map(Number::F64)
            .map_err(|_| invalid())
    } else if let Ok(u) = literal.parse::<u64>() {
        Ok(Number::U64(u))
    } else if let Ok(i) = literal.parse::<i64>() {
        Ok(Number::I64(i))
    } else {
        literal
            .parse::<f64>()
            .map(Number::BigInt)
            .map_err(|_| invalid())
    };
    (result, end)
}

/// Integer parts of number literals: none, zero, leading zeros, and
/// the edges of `u64` and `i64` with their neighbours.
const INT_PARTS: [&str; 11] = [
    "",
    "0",
    "00",
    "0007",
    "9223372036854775807",
    "9223372036854775808",
    "9223372036854775809",
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999",
    "123456789012345678901234567890",
];
const FRACTIONS: [&str; 4] = ["", ".", ".5", ".000"];
const EXPONENTS: [&str; 6] = ["", "e3", "E-2", "e+400", "e", "e-0"];
const TRAILERS: [&str; 9] = ["", "x", ",", " ", "-", "+1", ".", "]", "e"];

/// A number literal, valid or not, followed by what may trail it. Most
/// are plain integers: they take the reader's fast path.
fn arb_number_text() -> impl Strategy<Value = String> {
    (
        (0u8..4, 0usize..2 * INT_PARTS.len(), 0u64..=u64::MAX),
        (0usize..3, 0u64..=u64::MAX, proptest::bool::ANY),
        (
            0usize..FRACTIONS.len() + 6,
            0usize..EXPONENTS.len() + 9,
            0usize..TRAILERS.len(),
        ),
    )
        .prop_map(
            |((sign, part, raw), (zeros, extra, long), (frac, exp, trail))| {
                let int = INT_PARTS.get(part);
                // A text with no integer part starts with its sign: `-.5`.
                let signed = sign == 0 || int == Some(&"");
                let mut text = String::from(if signed { "-" } else { "" });
                text.push_str(&"0".repeat(zeros));
                match int {
                    Some(p) => text.push_str(p),
                    // A random integer, or one of 20 or more digits.
                    None if long => text.push_str(&format!("{raw}{extra}")),
                    None => text.push_str(&format!("{}", raw >> (extra % 64))),
                }
                text.push_str(FRACTIONS.get(frac).unwrap_or(&""));
                text.push_str(EXPONENTS.get(exp).unwrap_or(&""));
                text.push_str(TRAILERS[trail]);
                text
            },
        )
}

/// `v` with its object keys shuffled, and, where `draws` say so, an
/// empty `windows` dropped, keys duplicated after their first entry
/// (the first wins), and unknown keys inserted with nested values.
/// One-entry objects keyed by a capitalised name are enum variants and
/// keep their one entry.
fn scramble(v: &Value, draws: &mut impl Iterator<Item = u64>) -> Value {
    match v {
        Value::Seq(items) => Value::Seq(items.iter().map(|i| scramble(i, draws)).collect()),
        Value::Map(entries)
            if entries.len() == 1 && entries[0].0.starts_with(|c: char| c.is_ascii_uppercase()) =>
        {
            Value::Map(vec![(entries[0].0.clone(), scramble(&entries[0].1, draws))])
        }
        Value::Map(entries) => {
            let mut out: Vec<(String, Value)> = entries
                .iter()
                .map(|(k, v)| (k.clone(), scramble(v, draws)))
                .collect();
            let mut draw = || draws.next().expect("draws cycle");
            out.retain(|(k, v)| {
                !(k == "windows" && *v == Value::Seq(Vec::new()) && draw() % 2 == 0)
            });
            for i in (1..out.len()).rev() {
                out.swap(i, (draw() % (i as u64 + 1)) as usize);
            }
            if let Some((k, _)) = out.get((draw() % 8) as usize) {
                let dup = (k.clone(), Value::Str("duplicate".into()));
                out.push(dup);
            }
            if draw() % 2 == 0 {
                let mut junk = Value::U64(draw());
                for depth in 0..draw() % 8 {
                    junk = if depth % 2 == 0 {
                        Value::Seq(vec![junk, Value::Null])
                    } else {
                        Value::Map(vec![("at".into(), junk)])
                    };
                }
                let at = (draw() % (out.len() as u64 + 1)) as usize;
                out.insert(at, ("unknown".into(), junk));
            }
            Value::Map(out)
        }
        other => other.clone(),
    }
}

proptest! {
    /// Every integer type writes what `format!` writes.
    #[test]
    fn json_codec_writes_integers_like_format(raw in 0u64..=u64::MAX, shift in 0u32..64) {
        let v = raw >> shift;
        prop_assert_eq!(serde_json::to_string(&v).unwrap(), format!("{v}"));
        let i = v as i64;
        prop_assert_eq!(serde_json::to_string(&i).unwrap(), format!("{i}"));
        let (a, b, c) = (v as u32, v as i32, v as i8);
        prop_assert_eq!(serde_json::to_string(&a).unwrap(), format!("{a}"));
        prop_assert_eq!(serde_json::to_string(&b).unwrap(), format!("{b}"));
        prop_assert_eq!(serde_json::to_string(&c).unwrap(), format!("{c}"));
    }

    /// A number reads to the reference's `Number` and ends where the
    /// reference's literal does, or fails with the same error.
    #[test]
    fn json_codec_reads_numbers_like_the_reference(text in arb_number_text()) {
        let (want, end) = reference_number(&text);
        let mut r = Reader::new(&text);
        let got = r.number("number").map_err(|e| e.to_string());
        prop_assert_eq!(&got, &want, "{}", text);
        if got.is_ok() {
            prop_assert_eq!(r.error("end").to_string(), format!("end at byte {end}"), "{}", text);
        }
    }

    /// A log pair reads to the same value from compact text, pretty
    /// text, and scrambled text with escaped keys.
    #[test]
    fn json_codec_reads_reordered_logs(
        pair in arb_pair(),
        draws in proptest::collection::vec(0u64..=u64::MAX, 64..65),
        escape in proptest::bool::ANY,
    ) {
        let compact = serde_json::to_string(&pair).unwrap();
        let pretty = serde_json::to_string_pretty(&pair).unwrap();
        let mut draws = draws.into_iter().cycle();
        let scrambled = scramble(&serde_json::from_str(&compact).unwrap(), &mut draws);
        let mut shuffled = serde_json::to_string(&scrambled).unwrap();
        if escape {
            shuffled = shuffled.replace("\"req\":", "\"r\\u0065q\":").replace("{\"Lost\":", "{\"Lo\\u0073t\":");
        }
        for text in [&compact, &pretty, &shuffled, &serde_json::to_string_pretty(&scrambled).unwrap()] {
            prop_assert_eq!(&serde_json::from_str::<FleetLogPair>(text).unwrap(), &pair, "{}", text);
        }
    }
}
