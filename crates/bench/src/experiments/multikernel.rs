//! Fig. 18: two-kernel co-execution, inter-core vs intra-core sharing.

use crate::adapter::SystemHost;
use crate::runner::{config, fan_out, geomean, Protection, Target};
use gpushield::{ConcurrentKernel, LaunchSpec, MultiKernelMode};
use gpushield_workloads::{fig18_names, representative};
use std::fmt::Write as _;

fn run_pair(a: &str, b: &str, mode: MultiKernelMode, shield: bool) -> u64 {
    let prot = if shield {
        Protection::shield_default()
    } else {
        Protection::baseline()
    };
    let mut host = SystemHost::new(config(Target::Intel, prot));
    let ra = representative(a).expect("fig18 rep");
    let rb = representative(b).expect("fig18 rep");
    let args_a = ra.bind(&mut host);
    let args_b = rb.bind(&mut host);
    let (args_a, args_b) = (host.map_args(&args_a), host.map_args(&args_b));
    let kernels = [
        ConcurrentKernel::new(ra.kernel.clone(), ra.grid, ra.block, &args_a),
        ConcurrentKernel::new(rb.kernel.clone(), rb.grid, rb.block, &args_b),
    ];
    let report = host
        .system_mut()
        .submit(LaunchSpec {
            mode,
            ..LaunchSpec::new(&kernels)
        })
        .expect("pair launch")
        .report;
    assert!(report.completed(), "pair {a}+{b} aborted");
    report.cycles
}

/// Fig. 18: all 21 pairs of the seven OpenCL benchmarks, normalized over
/// the same pairing without bounds checking. Each pair (four independent
/// co-execution simulations) is one pool job.
pub fn fig18_multikernel(jobs: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig. 18 — multi-kernel execution on the Intel GPU (normalized over\n           no-bounds-check in the same sharing mode)\n"
    );
    let _ = writeln!(
        out,
        "{:<28} {:>11} {:>11}",
        "pair", "inter-core", "intra-core"
    );
    let names = fig18_names();
    let mut pairs = Vec::new();
    for i in 0..names.len() {
        for j in (i + 1)..names.len() {
            pairs.push((names[i], names[j]));
        }
    }
    let runs: Vec<(&str, &str, f64, f64)> = fan_out(
        pairs
            .into_iter()
            .map(|(a, b)| {
                move || {
                    let inter = run_pair(a, b, MultiKernelMode::InterCore, true) as f64
                        / run_pair(a, b, MultiKernelMode::InterCore, false) as f64;
                    let intra = run_pair(a, b, MultiKernelMode::IntraCore, true) as f64
                        / run_pair(a, b, MultiKernelMode::IntraCore, false) as f64;
                    (a, b, inter, intra)
                }
            })
            .collect(),
        jobs,
    );
    let mut inter_all = Vec::new();
    let mut intra_all = Vec::new();
    for (a, b, inter, intra) in runs {
        inter_all.push(inter);
        intra_all.push(intra);
        let _ = writeln!(
            out,
            "{:<28} {:>11.3} {:>11.3}",
            format!("{a}_{b}"),
            inter,
            intra
        );
    }
    let _ = writeln!(
        out,
        "{:<28} {:>11.3} {:>11.3}",
        "geomean",
        geomean(&inter_all),
        geomean(&intra_all)
    );
    let _ = writeln!(
        out,
        "\n(paper: average overhead under 0.3% in both modes; kernel-ID-tagged\n RCache entries keep intra-core sharing safe, §6.2)"
    );
    out
}
