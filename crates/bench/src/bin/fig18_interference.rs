//! Figure 18: GPU interference — prefill speed and game FPS when the
//! LLM runs concurrently with a 60 FPS mobile game (Llama-8B, seq 256).

use hetero_bench::{fmt, print_claims, save_json, Claim, Table};
use hetero_soc::interference::{simulate, RenderWorkload};
use hetero_soc::sync::SyncMechanism;
use hetero_soc::SimTime;
use hetero_workloads::bursts::{gpu_bursts, gpu_occupancy, pace_bursts};
use heterollm::{Engine, EngineKind, ModelConfig};
use serde::Serialize;

#[derive(Debug, Serialize)]
struct Point {
    engine: String,
    solo_tokens_per_sec: f64,
    with_game_tokens_per_sec: f64,
    slowdown_pct: f64,
    fps: f64,
    gpu_occupancy: f64,
}

fn main() {
    hetero_bench::cli::parse(
        "fig18_interference",
        "Figure 18: GPU interference between inference and a 60 FPS render workload",
        &[],
    );
    println!("Figure 18: prefill with a concurrent game (Llama-8B, seq 256)\n");
    let model = ModelConfig::llama_8b();
    let game = RenderWorkload::game_60fps();
    let mut t = Table::new(&[
        "engine",
        "solo tok/s",
        "w/ game tok/s",
        "LLM slowdown",
        "game FPS",
        "GPU occupancy",
    ]);
    let mut points = Vec::new();

    for kind in [
        EngineKind::PplOpenCl,
        EngineKind::HeteroLayer,
        EngineKind::HeteroTensor,
    ] {
        let mut e = kind.build(&model, SyncMechanism::Fast);
        e.enable_timeline();
        let report = e.prefill(256);
        let timeline = e.take_timeline().expect("timeline enabled");
        let raw = gpu_bursts(&timeline, SimTime::from_micros(25));
        let occ = gpu_occupancy(&raw);
        // HeteroLLM's control plane paces submissions kernel-by-kernel
        // (fast sync, §4.2); PPL floods the queue asynchronously.
        let bursts = if kind == EngineKind::PplOpenCl {
            raw
        } else {
            pace_bursts(&raw, SimTime::from_millis(2), SimTime::from_micros(15))
        };
        let sim = simulate(&bursts, &game);
        let slowdown = if kind == EngineKind::HeteroTensor {
            // The runtime decider re-balances partition shares when the
            // GPU is partially occupied (§4.3): simulate with a GPU
            // derated by the game's occupancy.
            let derate =
                1.0 - game.frame_gpu_time.as_secs_f64() / game.frame_interval.as_secs_f64();
            let mut adapted = heterollm::engines::HeteroTensorEngine::with_gpu_derate(
                &model,
                SyncMechanism::Fast,
                derate,
            );
            let adapted_rate = adapted.prefill(256).tokens_per_sec();
            report.tokens_per_sec() / adapted_rate
        } else {
            sim.llm_slowdown()
        };
        let with_game = report.tokens_per_sec() / slowdown;
        t.row(&[
            kind.name().into(),
            fmt(report.tokens_per_sec()),
            fmt(with_game),
            format!("{:+.1}%", (slowdown - 1.0) * 100.0),
            format!("{:.0}", sim.fps.min(60.0)),
            format!("{:.0}%", occ * 100.0),
        ]);
        points.push(Point {
            engine: kind.name().into(),
            solo_tokens_per_sec: report.tokens_per_sec(),
            with_game_tokens_per_sec: with_game,
            slowdown_pct: (slowdown - 1.0) * 100.0,
            fps: sim.fps.min(60.0),
            gpu_occupancy: occ,
        });
    }
    t.print();

    let point = |e: &str| points.iter().find(|p| p.engine == e).expect("engine");
    let ppl = point("PPL-OpenCL");
    let hl = point("Hetero-layer");
    let ht = point("Hetero-tensor");

    print_claims(
        "fig18_interference",
        "Paper claims (§5.5)",
        &[
            Claim {
                what: "game FPS with Hetero-tensor (paper: steady 60)".into(),
                paper: 60.0,
                measured: ht.fps,
                rel_tol: 0.05,
            },
            Claim {
                what: "game FPS with Hetero-layer (paper: steady 60)".into(),
                paper: 60.0,
                measured: hl.fps,
                rel_tol: 0.05,
            },
            Claim {
                what: "Hetero-tensor LLM slowdown % (paper 7.26%)".into(),
                paper: 7.26,
                measured: ht.slowdown_pct,
                rel_tol: 1.0,
            },
            Claim {
                what: "Hetero-layer LLM slowdown % (paper 9.57%)".into(),
                paper: 9.57,
                measured: hl.slowdown_pct,
                rel_tol: 1.0,
            },
            Claim {
                what: "game FPS with PPL-OpenCL (paper: collapse)".into(),
                paper: 0.0,
                measured: ppl.fps,
                rel_tol: 0.0,
            },
        ],
    );

    assert!(
        ppl.fps < 15.0,
        "PPL-OpenCL should collapse the game's FPS, got {}",
        ppl.fps
    );
    assert!(
        ht.with_game_tokens_per_sec > hl.solo_tokens_per_sec,
        "paper: Hetero-tensor w/ game still beats Hetero-layer w/o game"
    );
    println!(
        "\nPPL-OpenCL FPS collapse: {:.1} FPS; Hetero-tensor(w/game) {} tok/s > Hetero-layer(solo) {} tok/s [verified]",
        ppl.fps,
        fmt(ht.with_game_tokens_per_sec),
        fmt(hl.solo_tokens_per_sec)
    );
    save_json("fig18_interference", &points);
}
