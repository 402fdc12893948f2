//! Every workload end to end with a short window: the metric names are the
//! contract, the sim pass replays exactly, and the trace is well-formed.

use mtgpu_perf::{run, run_end_to_end, run_traced, Kind, Options, END_TO_END, PER_LAYER};
use serde::Value;

fn quick(kind: Kind) -> Options {
    Options { seconds: 0.3, setups: 2, sim_ops: Some(24), ..Options::new(kind) }
}

#[test]
fn end_to_end_reports_every_metric_and_no_failure() {
    for kind in Kind::ALL {
        let report = run_end_to_end(&quick(kind)).expect("run");
        assert_eq!(report.failed, 0, "{}:\n{}", kind.name(), report.table());
        assert!(report.correct());
        let names: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|&(n, _)| n).collect();
        assert_eq!(names, expected);
        for m in &report.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{} {} = {}",
                kind.name(),
                m.name,
                m.value
            );
        }
        assert!(report.table().contains("failed_share"));
    }
}

#[test]
fn traced_run_reports_every_layer_and_a_wellformed_trace() {
    for kind in Kind::ALL {
        let out = std::env::temp_dir().join(format!(
            "mtgpu-perf-smoke-{}-{}.json",
            std::process::id(),
            kind.name()
        ));
        let opts = Options { out: Some(out.clone()), ..quick(kind) };
        let report = run_traced(&opts).expect("run");
        assert_eq!(report.failed, 0, "{}:\n{}", kind.name(), report.table());
        let names: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
        let expected: Vec<&str> = PER_LAYER.iter().map(|&(n, _)| n).collect();
        assert_eq!(names, expected);
        for m in &report.metrics {
            assert!(m.value.is_finite(), "{} {} = {}", kind.name(), m.name, m.value);
        }
        assert_eq!(report.get("api.transport.sheds"), Some(0.0));
        assert!(report.get("client.calls_per_op").unwrap() >= 2.0);
        assert!(report.get("gpusim.kernels_per_op").unwrap() >= 1.0);

        let text = std::fs::read_to_string(&out).expect("trace file");
        std::fs::remove_file(&out).ok();
        let doc: Value = serde_json::from_str(&text).expect("trace parses as JSON");
        let Some(Value::Array(events)) = doc.get("traceEvents") else {
            panic!("no traceEvents array")
        };
        let num = |e: &Value, key: &str| match e.get(key) {
            Some(Value::F64(x)) => *x,
            Some(Value::U64(x)) => *x as f64,
            Some(Value::I64(x)) => *x as f64,
            other => panic!("{key} is {other:?}"),
        };
        let op_of = |e: &Value| (num(e, "tid") as u64, num(e.get("args").unwrap(), "op") as u64);
        let is = |e: &Value, cat: &str| e.get("cat") == Some(&Value::Str(cat.to_string()));
        let ops: std::collections::BTreeMap<(u64, u64), (f64, f64)> = events
            .iter()
            .filter(|e| is(e, "op"))
            .map(|e| (op_of(e), (num(e, "ts"), num(e, "ts") + num(e, "dur"))))
            .collect();
        assert!(!ops.is_empty(), "{}: no op span", kind.name());
        let calls: Vec<&Value> = events.iter().filter(|e| is(e, "call")).collect();
        assert!(!calls.is_empty(), "{}: no call span", kind.name());
        for call in calls {
            let (start, end) = ops[&op_of(call)];
            let (ts, te) = (num(call, "ts"), num(call, "ts") + num(call, "dur"));
            // Timestamps are written with nanosecond digits; allow one.
            assert!(
                ts >= start - 0.002 && te <= end + 0.002,
                "call {call:?} outside {start}..{end}"
            );
        }
    }
}

#[test]
fn sim_pass_is_a_pure_function_of_the_seed() {
    for kind in Kind::ALL {
        let a = run::sim_pass(kind, 42, 24).expect("sim pass");
        let b = run::sim_pass(kind, 42, 24).expect("sim pass");
        assert_eq!(a.failed, 0);
        assert!(a.sim_nanos > 0);
        assert_eq!(a.sim_nanos, b.sim_nanos, "{} replays bit for bit", kind.name());
        assert_eq!(a.sim_ms_per_op().to_bits(), b.sim_ms_per_op().to_bits());
        assert_eq!(a.after.metrics, b.after.metrics, "{} counters replay", kind.name());
    }
}

/// The calls a seed's set-up and warm-up issue, as the traced client sees them.
fn setup_stream(kind: Kind, seed: u64) -> String {
    let (live, recorders) =
        run::Live::setup_traced(kind, seed, std::time::Instant::now()).expect("set-up");
    let calls: Vec<String> = recorders
        .iter()
        .flat_map(|r| {
            let r = r.lock().expect("recorder lock");
            r.recording().prepare.iter().map(|p| format!("{:?}", p.inv)).collect::<Vec<_>>()
        })
        .collect();
    let mut window = run::Window::default();
    live.close(&mut window);
    assert_eq!(window.first_error, None);
    calls.join("\n")
}

#[test]
fn another_seed_gives_another_op_stream() {
    for kind in Kind::ALL {
        assert_ne!(setup_stream(kind, 42), setup_stream(kind, 43), "{}", kind.name());
    }
}

#[test]
fn benchmark_json_names_the_same_workloads_and_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let doc: Value = serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
        .expect("BENCHMARK.json parses");
    let listed = |key: &str, field: &str| -> Vec<String> {
        let Some(Value::Array(items)) = doc.get(key) else { panic!("no {key} array") };
        items
            .iter()
            .map(|i| match i.get(field) {
                Some(Value::Str(s)) => s.clone(),
                other => panic!("{key}.{field} is {other:?}"),
            })
            .collect()
    };
    let pairs = |names: Vec<String>, units: Vec<String>| -> Vec<(String, String)> {
        names.into_iter().zip(units).collect()
    };
    let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
    };
    assert_eq!(listed("workloads", "name"), Kind::ALL.map(|k| k.name().to_string()));
    assert_eq!(
        pairs(listed("end_to_end", "name"), listed("end_to_end", "unit")),
        table(&END_TO_END)
    );
    assert_eq!(pairs(listed("per_layer", "name"), listed("per_layer", "unit")), table(&PER_LAYER));
}
