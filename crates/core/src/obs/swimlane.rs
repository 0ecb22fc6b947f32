//! ASCII swimlane rendering of a timeline for terminal-only
//! inspection (the `timeline` bench bin).
//!
//! Each track becomes one fixed-width row; every column covers an
//! equal slice of simulated time and is painted with the
//! highest-priority span kind active anywhere in that slice:
//! `#` kernel execution, `~` sync wait, `c` graph compile,
//! `*` controller action, `.` idle. Phases are rendered on a separate
//! header row (`P` prefill, `D` decode, `-` other).

use super::timeline::{SpanKind, Timeline, Track};

/// Paint priority: higher wins when kinds share a column.
fn glyph(kind: SpanKind) -> (u8, char) {
    match kind {
        SpanKind::Kernel => (4, '#'),
        SpanKind::Sync => (3, '~'),
        SpanKind::Cache => (2, 'c'),
        SpanKind::Control => (1, '*'),
        SpanKind::Phase => (0, '.'),
    }
}

/// Render `tl` as an ASCII swimlane, `width` columns wide.
///
/// Deterministic: depends only on the timeline's contents. Returns a
/// short notice for an empty timeline.
pub fn render(tl: &Timeline, width: usize) -> String {
    let width = width.max(10);
    let end = tl.end_time().as_nanos();
    if end == 0 || tl.span_count() == 0 {
        return "timeline: (empty)\n".to_string();
    }
    // Column i covers [i*end/width, (i+1)*end/width).
    let col_of = |ns: u64| ((ns.saturating_mul(width as u64)) / end).min(width as u64 - 1) as usize;

    let mut out = String::new();

    // Phase header row.
    let mut phase_row = vec!['-'; width];
    for s in tl.spans().filter(|s| s.kind == SpanKind::Phase) {
        let mark = s.name.chars().next().unwrap_or('-').to_ascii_uppercase();
        for cell in phase_row
            .iter_mut()
            .take(col_of(s.end.as_nanos().saturating_sub(1)) + 1)
            .skip(col_of(s.start.as_nanos()))
        {
            *cell = mark;
        }
    }
    out.push_str(&format!(
        "{:>10} |{}|\n",
        "phase",
        phase_row.iter().collect::<String>()
    ));

    for track in Track::ALL {
        let mut row = vec![(0u8, '.'); width];
        for s in tl.spans().filter(|s| s.track == track) {
            let (prio, ch) = glyph(s.kind);
            if prio == 0 {
                continue;
            }
            let lo = col_of(s.start.as_nanos());
            let hi = col_of(s.end.as_nanos().saturating_sub(1).max(s.start.as_nanos()));
            for cell in row.iter_mut().take(hi + 1).skip(lo) {
                if prio > cell.0 {
                    *cell = (prio, ch);
                }
            }
        }
        let line: String = row.iter().map(|(_, c)| *c).collect();
        out.push_str(&format!("{:>10} |{line}|\n", track.name()));
    }

    out.push_str(&format!(
        "{:>10} |0{:>w$}|\n",
        "t (ms)",
        format!("{:.2}", tl.end_time().as_millis_f64()),
        w = width - 1
    ));
    out.push_str("legend: # kernel  ~ sync wait  c graph compile  * controller  . idle\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_soc::SimTime;

    fn us(x: u64) -> SimTime {
        SimTime::from_micros(x)
    }

    #[test]
    fn empty_timeline_renders_notice() {
        assert!(render(&Timeline::new(), 80).contains("(empty)"));
    }

    #[test]
    fn rows_cover_every_track_and_scale() {
        let mut tl = Timeline::new();
        tl.push_span(Track::Cpu, SpanKind::Phase, "prefill", us(0), us(100));
        tl.push_span(Track::Gpu, SpanKind::Kernel, "a", us(0), us(50));
        tl.push_span(Track::Npu, SpanKind::Sync, "switch", us(50), us(100));
        let s = render(&tl, 40);
        for label in ["GPU", "NPU", "CPU", "Controller", "phase", "t (ms)"] {
            assert!(s.contains(label), "missing {label} in:\n{s}");
        }
        // GPU busy in the first half, idle in the second.
        let gpu_row = s.lines().find(|l| l.contains("GPU")).expect("gpu row");
        assert!(gpu_row.contains('#'));
        assert!(gpu_row.contains('.'));
        let npu_row = s.lines().find(|l| l.contains("NPU")).expect("npu row");
        assert!(npu_row.contains('~'));
        // Phase header uses the phase initial.
        assert!(s.lines().next().expect("phase row").contains('P'));
    }

    #[test]
    fn kernel_paints_over_sync_in_shared_column() {
        let mut tl = Timeline::new();
        tl.push_span(Track::Gpu, SpanKind::Sync, "w", us(0), us(100));
        tl.push_span(Track::Gpu, SpanKind::Kernel, "k", us(0), us(100));
        let s = render(&tl, 20);
        let gpu_row = s.lines().find(|l| l.contains("GPU")).expect("gpu row");
        assert!(!gpu_row.contains('~'), "{s}");
    }

    #[test]
    fn render_is_deterministic() {
        let mut tl = Timeline::new();
        tl.push_span(Track::Npu, SpanKind::Kernel, "k", us(3), us(9));
        assert_eq!(render(&tl, 64), render(&tl, 64));
    }
}
