//! Runs the entire study once — every table and figure of the paper,
//! sharing the expensive measurements — and writes a `summary.md` recording
//! the paper's headline claims next to the model's numbers (the source of
//! EXPERIMENTS.md). The one writer of the paper's artifacts in `results/`.

use std::io;

use wimpi_core::report::{emit, run_bin, write_artifact, Args, TextFigure};
use wimpi_core::{compare_table2, compare_table3, median, reference, Study};
use wimpi_obs::status;

/// Median of the series named `name` in `figure` — a headline claim read off
/// the figure that plots it.
fn series_median(figure: &TextFigure, name: &str) -> f64 {
    let series = figure.series.iter().find(|s| s.name == name).expect("series present");
    let values: Vec<f64> = series.values.iter().map(|v| v.expect("value present")).collect();
    median(&values)
}

fn main() {
    run_bin(run_study)
}

fn run_study(args: &Args) -> io::Result<()> {
    status!("running full study at measure SF {} …", args.sf);
    let study = Study::new(args.sf);

    emit(args, "table1", &[Study::table1()])?;
    emit(args, "fig2", &Study::fig2())?;

    let sf1 = study.table2().expect("table2 runs");
    emit(args, "table2", &[sf1.to_figure("Table II — TPC-H SF 1 runtimes (s)")])?;
    let sf10 = study.table3(&args.sizes).expect("table3 runs");
    emit(args, "table3", &[sf10.to_figure("Table III — TPC-H SF 10 runtimes (s)")])?;
    emit(args, "fig3", &wimpi_core::fig3(&sf1, &sf10))?;
    let fig4 = study.fig4().expect("fig4 runs");
    emit(args, "fig4", &fig4.to_figures())?;
    let fig5 = wimpi_core::fig5(&sf1, &sf10);
    emit(args, "fig5", &fig5)?;
    emit(args, "fig6", &wimpi_core::fig6(&sf1, &sf10))?;
    let fig7 = wimpi_core::fig7(&sf1, &sf10);
    emit(args, "fig7", &fig7)?;

    // ---- headline-claim summary --------------------------------------
    let mut md = String::new();
    md.push_str(&format!(
        "# Study summary (measured at SF {}, extrapolated to SF 1 / SF 10)\n\n",
        args.sf
    ));
    let cmp2 = compare_table2(&sf1);
    let cmp3 = compare_table3(&sf10);
    write_artifact(&args.out, "table2_compare.md", &cmp2.to_markdown())?;
    write_artifact(&args.out, "table3_compare.md", &cmp3.to_markdown())?;
    md.push_str(&cmp2.to_markdown());
    md.push('\n');
    md.push_str(&cmp3.to_markdown());
    md.push('\n');

    md.push_str("## Headline claims, paper vs. model\n\n");
    md.push_str("| claim | paper | model |\n|---|---|---|\n");

    // §II-D1: Pi on average ~10× slower than the traditional servers at SF1.
    let ratios: Vec<f64> = (1..=22)
        .map(|q| {
            sf1.get("pi3b+", q).expect("pi modelled") / sf1.get("op-e5", q).expect("e5 modelled")
        })
        .collect();
    let paper_ratios: Vec<f64> = (1..=22)
        .map(|q| {
            reference::table2("pi3b+", q).expect("transcribed")
                / reference::table2("op-e5", q).expect("transcribed")
        })
        .collect();
    md.push_str(&format!(
        "| SF 1 median Pi/op-e5 slowdown | {:.1}× | {:.1}× |\n",
        median(&paper_ratios),
        median(&ratios)
    ));

    // §III-A1: MSRP improvement medians ≈ 22× (op-e5) and 29× (op-gold).
    for (server, paper_med) in [("op-e5", 22.0), ("op-gold", 29.0)] {
        md.push_str(&format!(
            "| SF 1 median MSRP improvement vs {server} | {paper_med:.0}× | {:.0}× |\n",
            series_median(&fig5[0], &format!("vs {server}"))
        ));
    }

    // §III-B1: energy improvement 2–22×, median ≈ 10×.
    md.push_str(&format!(
        "| SF 1 median energy improvement vs op-e5 | ~10× | {:.0}× |\n",
        series_median(&fig7[0], "vs op-e5")
    ));

    // §II-D2: WIMPI@24 outperforms ≥1 comparison point on 5 of 8 queries.
    let biggest = *args.sizes.last().expect("at least one size");
    let mut wins = 0;
    for &q in &sf10.queries {
        let w = sf10.wimpi(biggest, q).expect("wimpi modelled");
        if sf10.servers.profiles.iter().any(|p| sf10.servers.get(p, q).expect("server") > w) {
            wins += 1;
        }
    }
    md.push_str(&format!(
        "| SF 10 queries where WIMPI@{biggest} beats ≥1 server | 5 of 8 | {wins} of 8 |\n"
    ));

    // Q13 stays flat across cluster sizes (single-node execution).
    let q13: Vec<f64> =
        args.sizes.iter().map(|&n| sf10.wimpi(n, 13).expect("q13 modelled")).collect();
    let flat = q13.iter().all(|&t| (t - q13[0]).abs() < 1e-9);
    md.push_str(&format!(
        "| Q13 runtime flat across cluster sizes | yes | {} |\n",
        if flat { "yes" } else { "no" }
    ));

    // Fig 4 ordering: access-aware ≤ hybrid ≤ data-centric per machine.
    let mut order_ok = 0;
    let mut order_total = 0;
    for m in 0..fig4.machines.len() {
        for qi in 0..fig4.queries.len() {
            order_total += 1;
            let dc = fig4.seconds[m][0][qi];
            let hy = fig4.seconds[m][1][qi];
            let aa = fig4.seconds[m][2][qi];
            if aa <= hy && hy <= dc {
                order_ok += 1;
            }
        }
    }
    md.push_str(&format!(
        "| Fig 4: access-aware ≤ hybrid ≤ data-centric | always | {order_ok}/{order_total} |\n"
    ));

    println!("{md}");
    write_artifact(&args.out, "summary.md", &md)
}
