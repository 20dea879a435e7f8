//! Unit tests for the benchmark's own machinery: the tail-percentile
//! rule, the `/proc` CPU reader, and the never-repeat guarantee of the
//! fresh-program generator behind `cold-batch` and `watch`.

use std::collections::HashSet;

use scabench::gen::FreshPrograms;
use scabench::procfs::{cpu_ms, stat_cpu_ticks, status_kb};
use scabench::stats::{median, tail, TAIL_BEYOND};

#[test]
fn tail_needs_eleven_samples() {
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(tail(&ten), None, "no percentile has ten samples beyond it");
    let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
    let t = tail(&eleven).expect("eleven samples");
    assert_eq!(t.value, 1.0);
    assert_eq!(t.samples, 11);
    assert!((t.percentile - 100.0 / 11.0).abs() < 1e-9);
}

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    // Shuffled 1..=1000: the tail is p99 at 990, with exactly ten larger.
    let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
    v.reverse();
    v.swap(3, 700);
    let t = tail(&v).expect("enough samples");
    assert_eq!(t.value, 990.0);
    assert_eq!(t.samples, 1000);
    assert!((t.percentile - 99.0).abs() < 1e-9);
    assert_eq!(v.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);

    // 2500 samples: p99.6, the 2490th value.
    let v: Vec<f64> = (1..=2500).map(f64::from).collect();
    let t = tail(&v).expect("enough samples");
    assert_eq!(t.value, 2490.0);
    assert!((t.percentile - 99.6).abs() < 1e-9);
}

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[]), None);
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
}

#[test]
fn stat_reader_counts_fields_after_the_last_paren() {
    // A command name with spaces and parentheses must not shift fields.
    let stat = "4242 (sca (serve) x) S 1 4242 4242 0 -1 4194560 120 0 0 0 \
                731 269 0 0 20 0 9 0 12345 100000 200 18446744073709551615";
    assert_eq!(stat_cpu_ticks(stat), Some(731 + 269));
    assert_eq!(stat_cpu_ticks("garbage"), None);
    assert_eq!(stat_cpu_ticks("1 (x) S 1 2"), None, "truncated line");
}

#[test]
fn stat_reader_sees_this_process_burn_cpu() {
    let before = cpu_ms(None).expect("/proc/self/stat is readable");
    let start = std::time::Instant::now();
    let mut x: u64 = 1;
    while start.elapsed().as_millis() < 150 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
    }
    std::hint::black_box(x);
    let after = cpu_ms(None).expect("/proc/self/stat is readable");
    assert!(
        after - before >= 50.0,
        "150 ms of spinning read as {} ms",
        after - before
    );
}

#[test]
fn status_reader_parses_kb_fields() {
    let status = "Name:\tscaguard\nVmPeak:\t  20000 kB\nVmHWM:\t   12345 kB\nThreads:\t9\n";
    assert_eq!(status_kb(status, "VmHWM"), Some(12345));
    assert_eq!(status_kb(status, "VmPeak"), Some(20000));
    assert_eq!(status_kb(status, "Threads"), None, "not a kB field");
    assert_eq!(status_kb(status, "VmRSS"), None);
}

#[test]
fn fresh_programs_never_repeat_a_model_key() {
    const N: usize = 240;
    let programs: Vec<_> = FreshPrograms::new(7).take(N).collect();
    let keys: HashSet<String> = programs
        .iter()
        .map(|t| t.model_key().canonical().to_string())
        .collect();
    assert_eq!(keys.len(), N, "every program misses the builder");
    let names: HashSet<&str> = programs.iter().map(|t| t.name.as_str()).collect();
    assert_eq!(names.len(), N);
}

#[test]
fn fresh_programs_are_a_function_of_the_seed() {
    let a: Vec<_> = FreshPrograms::new(11).take(40).collect();
    let b: Vec<_> = FreshPrograms::new(11).take(40).collect();
    let c: Vec<_> = FreshPrograms::new(12).take(40).collect();
    assert_eq!(a, b);
    assert_ne!(a, c);
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    use scabench::trace::{self_times, Span};
    let span = |id, parent, start_ns, end_ns| Span {
        id,
        trace: 1,
        parent,
        name: format!("s{id}"),
        start_ns,
        end_ns,
    };
    // Parent [0,100); children [10,40) and [30,60) overlap, [90,120)
    // sticks out past the parent's end; grandchild [15,20) is the
    // child's, not the parent's.
    let spans = [
        span(1, None, 0, 100),
        span(2, Some(1), 10, 40),
        span(3, Some(1), 30, 60),
        span(4, Some(1), 90, 120),
        span(5, Some(2), 15, 20),
    ];
    let selfs = self_times(&spans);
    assert_eq!(selfs[&1], 100 - 50 - 10);
    assert_eq!(selfs[&2], 30 - 5);
    assert_eq!(selfs[&5], 5);
}

#[test]
fn windowed_tail_is_the_median_of_per_window_tails() {
    use scabench::stats::windowed_tail;
    // Five windows of 100: window k holds k*1000 + 1..=100, so its tail
    // (rank 89, the p90) is k*1000 + 90; one huge outlier in the last
    // window moves that window alone, and the 20 trailing samples fall
    // in no window.
    let mut v: Vec<f64> = (0..5)
        .flat_map(|k| (1..=100).map(move |i| f64::from(k * 1000 + i)))
        .collect();
    v[450] = 1e9;
    v.extend([1e9; 20]);
    let t = windowed_tail(&v, 100).expect("enough samples");
    assert_eq!(t.value, 2090.0);
    assert_eq!(t.samples, 520);
    assert!((t.percentile - 90.0).abs() < 1e-9);
    assert_eq!(windowed_tail(&v[..99], 100), None, "no whole window");
    assert_eq!(windowed_tail(&v, 10), None, "no sample beyond ten");
}

#[test]
fn calm_windows_are_the_least_stolen_quarter() {
    use scabench::stats::calm_windows;
    // Eight windows: the second least stolen has 0.5, so windows 1, 2
    // (unreadable, as 0) and 3 (a tie at 0.5) are calm.
    let steal = [
        Some(20.0),
        Some(0.5),
        None,
        Some(0.5),
        Some(30.0),
        Some(4.0),
        Some(1.0),
        Some(9.0),
    ];
    assert_eq!(calm_windows(&steal), vec![1, 2, 3]);
    // Even steal: every window; five windows: the two least stolen.
    assert_eq!(calm_windows(&[Some(0.0); 4]), vec![0, 1, 2, 3]);
    let five = [Some(3.0), Some(9.0), Some(1.0), Some(2.0), Some(7.0)];
    assert_eq!(calm_windows(&five), vec![2, 3]);
    assert_eq!(calm_windows(&[Some(5.0)]), vec![0]);
    assert_eq!(calm_windows(&[]), Vec::<usize>::new());
}
