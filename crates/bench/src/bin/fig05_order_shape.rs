//! Figure 5: order-sensitive and shape-sensitive NPU performance.
//!
//! Four series over K:
//! - good order:  `[14336,4096] x [4096,K]` (large streamed operand)
//! - bad order:   `[K,4096] x [4096,14336]` (same FLOPs, reversed)
//! - tall shape:  `[8192,2048] x [2048,K]` (rows > columns)
//! - wide shape:  `[2048,8192] x [8192,K]` (columns > rows, same FLOPs)

use hetero_bench::{fmt, print_claims, save_json, Claim, Table};
use hetero_soc::calib::NPU_MAX_BW_GBPS;
use hetero_soc::npu::NpuModel;
use hetero_tensor::shape::MatmulShape;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct Point {
    k: usize,
    good_ms: f64,
    bad_ms: f64,
    tall_tflops: f64,
    wide_tflops: f64,
}

fn main() {
    hetero_bench::cli::parse(
        "fig05_order_shape",
        "Figure 5: order-sensitive and shape-sensitive NPU performance",
        &[],
    );
    println!("Figure 5: order- and shape-sensitive NPU performance\n");
    let npu = NpuModel::default();
    let time_ms = |s: MatmulShape| {
        npu.matmul_timing(s, 16, 16, 16, NPU_MAX_BW_GBPS)
            .total
            .as_millis_f64()
    };
    let mut t = Table::new(&[
        "K",
        "good [14336,4096]x[4096,K] ms",
        "bad [K,4096]x[4096,14336] ms",
        "bad/good",
        "tall TFLOPS",
        "wide TFLOPS",
    ]);
    let mut points = Vec::new();
    for k in [32usize, 64, 128, 256, 512, 1024] {
        let good = time_ms(MatmulShape::new(14336, 4096, k));
        let bad = time_ms(MatmulShape::new(k, 4096, 14336));
        let tall = npu.effective_tflops(MatmulShape::new(8192, 2048, k), 16, NPU_MAX_BW_GBPS);
        let wide = npu.effective_tflops(MatmulShape::new(2048, 8192, k), 16, NPU_MAX_BW_GBPS);
        t.row(&[
            k.to_string(),
            fmt(good),
            fmt(bad),
            fmt(bad / good),
            fmt(tall),
            fmt(wide),
        ]);
        points.push(Point {
            k,
            good_ms: good,
            bad_ms: bad,
            tall_tflops: tall,
            wide_tflops: wide,
        });
    }
    t.print();

    let at512 = points.iter().find(|p| p.k == 512).expect("k=512");
    let at128 = points.iter().find(|p| p.k == 128).expect("k=128");
    print_claims(
        "fig05_order_shape",
        "Paper claims (§3.2)",
        &[
            Claim {
                what: "order sensitivity at K=512 (paper: ≈6x)".into(),
                paper: 6.0,
                measured: at512.bad_ms / at512.good_ms,
                rel_tol: 0.6,
            },
            Claim {
                what: "shape sensitivity at K=128: tall/wide TFLOPS (rows>cols wins)".into(),
                paper: 2.0,
                measured: at128.tall_tflops / at128.wide_tflops,
                rel_tol: 0.6,
            },
        ],
    );
    assert!(
        points.iter().all(|p| p.tall_tflops >= p.wide_tflops),
        "rows>cols must never lose at equal FLOPs"
    );
    save_json("fig05_order_shape", &points);
}
