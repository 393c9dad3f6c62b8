//! The benchmark's own arithmetic: order statistics, the median lap,
//! the tail rule, host-speed calibration, `/proc` parsing, the worker
//! idle fraction, and the result line.

use engarde_perfbench::calib::{self, Interval, REFERENCE_KERNEL_NS};
use engarde_perfbench::run::{Metric, RunOutput};
use engarde_perfbench::sessions::{lap_inputs, Workload};
use engarde_perfbench::stats::{
    median, median_lap, parse_schedstat_runtime_ns, parse_steal_jiffies, parse_vm_hwm_kib,
    quartiles, tail, worker_idle_frac,
};

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-9
}

#[test]
fn median_of_odd_even_and_empty_samples() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(median(&[7.0]), Some(7.0));
    assert_eq!(median(&[]), None);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // Reference values from `statistics.quantiles(data, n=4)`.
    let cases: [(&[f64], [f64; 3]); 4] = [
        (
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0],
            [2.75, 5.5, 8.25],
        ),
        (&[1.0, 2.0, 3.0, 4.0, 5.0], [1.5, 3.0, 4.5]),
        (&[1.0, 2.0], [0.75, 1.5, 2.25]),
        (&[3.5, 1.25, 9.0, 2.0, 7.75, 4.0, 6.5], [2.0, 4.0, 7.75]),
    ];
    for (data, want) in cases {
        let got = quartiles(data).expect("non-empty");
        for (g, w) in got.iter().zip(want) {
            assert!(close(*g, w), "{data:?}: got {got:?}, want {want:?}");
        }
    }
    assert_eq!(quartiles(&[5.0]), Some([5.0; 3]));
    assert_eq!(quartiles(&[]), None);
}

#[test]
fn tail_is_the_eleventh_slowest_with_its_true_percentile() {
    let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
    let t = tail(&hundred).expect("samples");
    assert_eq!((t.value, t.n), (90.0, 100));
    assert!(close(t.percentile, 90.0));

    let thousand: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
    let t = tail(&thousand).expect("samples");
    assert_eq!(t.value, 990.0);
    assert!(close(t.percentile, 99.0));

    // Eleven samples: only the fastest has ten beyond it.
    let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
    let t = tail(&eleven).expect("samples");
    assert_eq!(t.value, 1.0);
    assert!(close(t.percentile, 100.0 / 11.0));

    // Ten or fewer: no value has ten beyond it; the slowest is named p100.
    let t = tail(&[4.0, 9.0, 1.0]).expect("samples");
    assert_eq!((t.value, t.percentile, t.n), (9.0, 100.0, 3));
    assert_eq!(tail(&[]), None);
}

#[test]
fn vm_hwm_is_read_from_proc_status() {
    let status =
        "Name:\tengarde-perfben\nVmPeak:\t  200000 kB\nVmHWM:\t   97476 kB\nVmRSS:\t   90000 kB\n";
    assert_eq!(parse_vm_hwm_kib(status), Some(97_476));
    assert_eq!(parse_vm_hwm_kib("VmRSS:\t 1 kB\n"), None);
}

#[test]
fn thread_cpu_time_is_the_first_schedstat_field() {
    assert_eq!(
        parse_schedstat_runtime_ns("1833370512 25149133 1042\n"),
        Some(1_833_370_512)
    );
    assert_eq!(parse_schedstat_runtime_ns(""), None);
    assert_eq!(parse_schedstat_runtime_ns("x 1 2"), None);
}

#[test]
fn median_lap_takes_each_calls_median_over_laps() {
    // Lap 0's slow first call and lap 2's slow second call are outvoted.
    let laps = vec![
        vec![9.0, 2.0, 0.5],
        vec![1.0, 2.5, 0.5],
        vec![1.5, 7.0, 0.5],
    ];
    assert_eq!(median_lap(&laps), Some(vec![1.5, 2.5, 0.5]));
    // An even number of laps takes the mean of the middle two.
    assert_eq!(median_lap(&[vec![1.0], vec![3.0]]), Some(vec![2.0]));
    // Laps that made different calls cannot be lined up.
    assert_eq!(median_lap(&[vec![1.0], vec![1.0, 2.0]]), None);
    assert_eq!(median_lap(&[]), None);
}

#[test]
fn slowdown_is_the_mean_boundary_kernel_time_over_the_reference() {
    let r = REFERENCE_KERNEL_NS;
    assert!(close(calib::slowdown(r, r), 1.0));
    assert!(close(calib::slowdown(1.2 * r, 1.6 * r), 1.4));
    assert!(close(calib::slowdown(0.5 * r, 0.5 * r), 0.5));
    // Unusable marks leave a time as measured.
    assert!(close(calib::slowdown(0.0, 0.0), 1.0));
    assert!(close(calib::slowdown(f64::NAN, r), 1.0));

    // A call that took 3 s while the host ran 1.5x slow took 2 s at the
    // reference speed.
    let call = Interval {
        wall_s: 3.0,
        cpu_s: 1.5,
        slowdown: 1.5,
    };
    assert!(close(call.ref_wall_s(), 2.0));
    assert!(close(call.ref_cpu_s(), 1.0));
}

#[test]
fn calibration_kernel_is_deterministic_work() {
    assert_eq!(calib::kernel(), calib::kernel());
    assert!(calib::mark() > 0.0);
}

#[test]
fn steal_jiffies_come_from_the_aggregate_cpu_line() {
    let stat = "cpu  3168017 0 17849 1296176 365 0 671 32879 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
    let total = 3_168_017 + 17_849 + 1_296_176 + 365 + 671 + 32_879;
    assert_eq!(parse_steal_jiffies(stat), Some((32_879, total)));
    assert_eq!(parse_steal_jiffies("cpu0 1 2 3\n"), None);
}

#[test]
fn worker_idle_fraction_is_unused_worker_time_over_the_makespan() {
    // Worker 0 busy the whole makespan, worker 1 half of it.
    let f = worker_idle_frac(100, 2, &[(0, 60), (0, 40), (1, 50)]);
    assert!(close(f, 0.25));
    // Busy time beyond the makespan (clock skew) counts as zero idle.
    assert!(close(worker_idle_frac(100, 2, &[(0, 150), (1, 100)]), 0.0));
    // A worker that ran nothing is idle throughout.
    assert!(close(worker_idle_frac(100, 2, &[(0, 100)]), 0.5));
    // Sessions of unknown workers are ignored; degenerate inputs give 0.
    assert!(close(worker_idle_frac(100, 1, &[(0, 100), (7, 5)]), 0.0));
    assert_eq!(worker_idle_frac(0, 2, &[]), 0.0);
    assert_eq!(worker_idle_frac(100, 0, &[]), 0.0);
}

#[test]
fn result_line_has_exactly_the_contract_keys() {
    let out = RunOutput {
        correct: true,
        attempted: 35,
        failed: 0,
        metrics: vec![
            Metric::new("session_p50_ms", 101.25, "ms"),
            Metric::new("setup_s", 0.5, "s"),
        ],
        notes: vec!["not printed here".into()],
    };
    assert_eq!(
        out.to_json(),
        "{\"correct\": true, \"attempted\": 35, \"failed\": 0, \"metrics\": {\
         \"session_p50_ms\": {\"value\": 101.25, \"unit\": \"ms\"}, \
         \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
    );
}

#[test]
fn session_lists_are_a_pure_function_of_the_seed() {
    let a = lap_inputs(Workload::Keys1024, 7, 1);
    let b = lap_inputs(Workload::Keys1024, 7, 1);
    let names = |l: &[engarde_perfbench::sessions::SessionInput]| {
        l.iter()
            .map(|s| (s.name.clone(), s.image.clone()))
            .collect::<Vec<_>>()
    };
    assert_eq!(names(&a), names(&b));
    assert_ne!(names(&a), names(&lap_inputs(Workload::Keys1024, 8, 1)));
    // A lap's picks span all three figures.
    let figures: std::collections::BTreeSet<_> =
        a.iter().map(|s| s.name.rsplit('-').next()).collect();
    assert_eq!(figures.len(), 3, "{figures:?}");
    // Warm laps replay cold lap 0's list.
    assert_eq!(
        Workload::PaperWarm.lap_seed(7, 5),
        Workload::PaperCold.lap_seed(7, 0)
    );
}
