//! Fig. 6: latency of each algorithmic component on the multicore CPU
//! baseline (mean / p99 / p99.99), KITTI-like workload.

use adsim_bench::{compare, header, paper};
use adsim_core::{ModeledPipeline, PlatformConfig};
use adsim_platform::Component;

fn main() {
    header("Fig. 6", "Per-component latency on multicore CPUs");
    let mut pipe = ModeledPipeline::new(PlatformConfig::all_cpu(), 0xF16);
    let stats = pipe.simulate(50_000, 1.0);

    println!(
        "{:<10} {:>12} {:>12} {:>40}",
        "Component", "mean (ms)", "p99 (ms)", "p99.99 (ms) vs paper"
    );
    for c in Component::ALL {
        let s = stats.component(c).summary();
        println!(
            "{:<10} {:>12.2} {:>12.2} {:>40}",
            c.abbrev(),
            s.mean,
            s.p99,
            compare(s.p99_99, paper::fig6_tail_ms(c))
        );
    }
    let e2e = stats.end_to_end.summary();
    println!("\nEnd-to-end: mean {:.0} ms, p99.99 {:.0} ms", e2e.mean, e2e.p99_99);
    println!("Every bottleneck individually exceeds the 100 ms constraint;");
    println!("DET, TRA and LOC dominate the end-to-end latency (paper 3.2).");
    for c in Component::BOTTLENECKS {
        assert!(stats.component(c).summary().p99_99 > 100.0);
    }
}
