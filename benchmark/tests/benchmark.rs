//! The benchmark's own tests: seeded inputs, the open-loop timer, and
//! the metric names against `BENCHMARK.json`.

use sb_perfbench::openloop;
use sb_perfbench::report::{Outcome, END_TO_END, PER_LAYER};
use sb_perfbench::serve::{science_statements, science_workload};
use sb_perfbench::util::SplitMix64;
use sb_perfbench::WORKLOADS;
use std::path::{Path, PathBuf};
use std::time::Duration;

fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

#[test]
fn the_same_seed_gives_the_same_request_bytes() {
    let all = science_statements(&repo().join("datasets")).expect("datasets load");
    assert_eq!(all.len(), 1_249);
    let b = science_workload(&all, 7, 3_000).request_bytes();
    assert_eq!(b, science_workload(&all, 7, 3_000).request_bytes());
    assert_ne!(b, science_workload(&all, 8, 3_000).request_bytes());

    let mut rng = SplitMix64::new(7);
    let due = openloop::poisson_due_ns(1_000.0, 100, &mut rng);
    assert_eq!(
        due,
        openloop::poisson_due_ns(1_000.0, 100, &mut SplitMix64::new(7))
    );
    assert!(due.windows(2).all(|w| w[0] <= w[1]));
}

#[test]
fn science_stream_deals_every_statement_once_per_deck() {
    let all = science_statements(&repo().join("datasets")).unwrap();
    let w = science_workload(&all, 5, all.len());
    let mut dealt: Vec<&(&str, String)> = w
        .requests
        .iter()
        .map(|&id| &w.statements[id as usize])
        .collect();
    let mut expected: Vec<&(&str, String)> = all.iter().collect();
    dealt.sort();
    expected.sort();
    assert_eq!(dealt, expected);
}

#[test]
fn open_loop_latency_counts_queue_wait_from_the_due_time() {
    // Ten requests all due at once, one thread, a stub that sleeps 5 ms:
    // request k waits for the k before it, and its latency says so.
    let service = Duration::from_millis(5);
    let run = openloop::run(
        &[0; 10],
        1,
        |_| (),
        |_, ()| std::thread::sleep(service),
        |_, t, ()| *t,
    );
    for (k, (timing, _)) in run.samples.iter().enumerate() {
        let wait = service.as_nanos() as u64 * k as u64;
        assert!(
            timing.late_ns >= wait,
            "request {k}: late {} < {wait}",
            timing.late_ns
        );
        assert!(timing.latency_ns >= timing.late_ns + service.as_nanos() as u64);
    }
    assert!(run.elapsed_s >= 0.05);

    // On a schedule the stub keeps up with, nothing waits long.
    let due: Vec<u64> = (0..5).map(|i| i * 20_000_000).collect();
    let run = openloop::run(
        &due,
        1,
        |_| (),
        |_, ()| std::thread::sleep(service),
        |_, t, ()| *t,
    );
    for (timing, _) in &run.samples {
        assert!(timing.late_ns < 10_000_000, "late {} ns", timing.late_ns);
        assert_eq!(timing.due_ns % 20_000_000, 0);
    }
}

/// The `"name"` values inside the JSON array under `key`.
fn names_under(json: &str, key: &str) -> Vec<String> {
    let at = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("no `{key}` in BENCHMARK.json"));
    let rest = &json[at..];
    let array = &rest[rest.find('[').unwrap()..rest.find(']').unwrap()];
    array
        .split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).unwrap().to_string())
        .collect()
}

/// `(name, unit)` pairs of a rendered result line.
fn printed(line: &str) -> Vec<(String, String)> {
    let metrics = &line[line.find("\"metrics\": {").unwrap() + 12..];
    metrics
        .split("}, ")
        .map(|field| {
            let name = field.split('"').nth(1).unwrap();
            let unit = field
                .split("\"unit\": \"")
                .nth(1)
                .unwrap()
                .split('"')
                .next()
                .unwrap();
            (name.to_string(), unit.to_string())
        })
        .collect()
}

#[test]
fn printed_metric_names_equal_benchmark_json() {
    let json = std::fs::read_to_string(repo().join("BENCHMARK.json")).expect("BENCHMARK.json");
    assert_eq!(names_under(&json, "workloads"), WORKLOADS.to_vec());
    for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let mut o = Outcome::default();
        for (name, _) in list {
            o.set(name, 1.5);
        }
        let line = o.render(list).unwrap();
        let names: Vec<String> = printed(&line).into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, names_under(&json, key), "{key}");
        for (name, unit) in printed(&line) {
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} has another unit in BENCHMARK.json"
            );
        }
    }
}
