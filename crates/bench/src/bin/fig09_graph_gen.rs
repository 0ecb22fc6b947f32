//! Figure 9: NPU graph generation time for single operators across
//! tensor shapes (and the §5.2.2 whole-set anchors).

use hetero_bench::{fmt, print_claims, save_json, Claim, Table};
use hetero_graph::{CompileModel, GraphSet};
use hetero_tensor::shape::MatmulShape;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct Point {
    op: String,
    m: usize,
    compile_ms: f64,
}

fn main() {
    hetero_bench::cli::parse(
        "fig09_graph_gen",
        "Figure 9: NPU graph generation time for single operators across",
        &[],
    );
    println!("Figure 9: NPU graph generation time per operator\n");
    let model = CompileModel::default();
    let set = GraphSet::llama8b();
    let mut t = Table::new(&[
        "operator [k,n]",
        "m=64",
        "m=135",
        "m=256",
        "m=512",
        "m=1000",
    ]);
    let mut points = Vec::new();
    for tpl in &set.templates {
        let mut cells = vec![format!("{} [{},{}]", tpl.name, tpl.k, tpl.n)];
        for m in [64usize, 135, 256, 512, 1000] {
            let ms = model
                .op_compile_time(MatmulShape::new(m, tpl.k, tpl.n))
                .as_millis_f64();
            cells.push(format!("{} ms", fmt(ms)));
            points.push(Point {
                op: tpl.name.clone(),
                m,
                compile_ms: ms,
            });
        }
        t.row(&cells);
    }
    t.print();

    let total_135 = model.set_compile_time(&set, 135).as_millis_f64();
    let total_1000 = model.set_compile_time(&set, 1000).as_millis_f64();
    println!(
        "\n4-graph set totals: m=135 -> {} ms, m=1000 -> {} ms",
        fmt(total_135),
        fmt(total_1000)
    );

    print_claims(
        "fig09_graph_gen",
        "Paper anchors (§5.2.2)",
        &[
            Claim {
                what: "4-graph preparation at seq 135 (ms)".into(),
                paper: 408.4,
                measured: total_135,
                rel_tol: 0.10,
            },
            Claim {
                what: "4-graph preparation at seq 1000 (ms)".into(),
                paper: 2050.0,
                measured: total_1000,
                rel_tol: 0.20,
            },
        ],
    );
    save_json("fig09_graph_gen", &points);
}
