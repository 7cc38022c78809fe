//! Self-test: every workload at a tiny size, on two seeds, untraced and
//! traced, with every output check on. Also holds `BENCHMARK.json` to the
//! metrics and workloads the program reports.

use std::collections::BTreeSet;

use tdbhtbench::workloads::WORKLOADS;
use tdbhtbench::{run, Config, Report, END_TO_END, PER_LAYER};

/// Two workers even on a one-core host, so the one-worker and the full
/// pool always differ and the label-equality check means something.
const THREADS: usize = 2;

fn tiny_run(index: usize, seed: u64, trace: bool) -> Report {
    run(&Config {
        workload: WORKLOADS[index].tiny(),
        seed,
        seconds: 0.0,
        trace,
        threads: THREADS,
    })
}

fn names(metrics: &[(&str, &str)]) -> BTreeSet<String> {
    metrics.iter().map(|(n, _)| n.to_string()).collect()
}

fn assert_clean(report: &Report, expected: &[(&str, &str)], what: &str) {
    assert!(report.attempted > 0, "{what}: nothing attempted");
    assert_eq!(report.failed, 0, "{what}: {:#?}", report.notes);
    let got: BTreeSet<String> = report.metrics.keys().map(|k| k.to_string()).collect();
    assert_eq!(got, names(expected), "{what}: reported metrics");
    for (name, (value, _)) in &report.metrics {
        assert!(value.is_finite(), "{what}: {name} = {value}");
    }
    let line = report.json();
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
}

#[test]
fn untraced_runs_pass_every_check() {
    for (i, w) in WORKLOADS.iter().enumerate() {
        for seed in [1, 2] {
            let report = tiny_run(i, seed, false);
            assert_clean(&report, &END_TO_END, &format!("{} seed {seed}", w.name));
            let (ari, _) = report.metrics["ari"];
            assert!(ari >= w.ari_floor && ari <= 1.0, "{}: ari {ari}", w.name);
        }
    }
}

#[test]
fn traced_runs_pass_every_check_and_write_their_spans() {
    for (i, w) in WORKLOADS.iter().enumerate() {
        for seed in [1, 2] {
            let what = format!("{} seed {seed} traced", w.name);
            let report = tiny_run(i, seed, true);
            assert_clean(&report, &PER_LAYER, &what);

            let path = report.spans_path.as_ref().expect("span file written");
            let text = std::fs::read_to_string(path).expect("span file readable");
            let records =
                pfg_bench::records::parse_flat_array(&text).expect("span file is a flat array");
            let spans: Vec<_> = records.iter().filter(|r| r.contains_key("run")).collect();
            // Per round and problem: a traced repetition in each pool, each
            // with a root span and eight layer spans.
            assert_eq!(spans.len() % 18, 0, "{what}: {} spans", spans.len());
            for span in &spans {
                let start = span["start_s"].as_f64().expect("start");
                let end = span["end_s"].as_f64().expect("end");
                assert!(start <= end, "{what}: span ends before it starts");
                let is_root = span["name"].as_str() == Some("pipeline");
                assert_eq!(
                    span["parent"].as_f64().is_none(),
                    is_root,
                    "{what}: only root spans lack a parent"
                );
            }
        }
    }
}

#[test]
fn benchmark_json_matches_the_program() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let listed: BTreeSet<String> = text
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("closing quote")].to_string())
        .collect();
    let mut expected = names(&END_TO_END);
    expected.extend(names(&PER_LAYER));
    expected.extend(WORKLOADS.iter().map(|w| w.name.to_string()));
    assert_eq!(listed, expected);
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
}
