//! Edge-deployment feasibility: the Table 4 memory comparison plus the
//! Raspberry Pi Pico RAM budget check, and a demonstration of the
//! stack-allocated (`no-heap`) math path the MCU firmware would use.
//!
//! ```text
//! cargo run --release --example mcu_budget
//! ```

use seqdrift::edgesim::{bytes_of_scalars, check_budget, MemoryReport, PI4, PICO};
use seqdrift::eval::experiments::table4;
use seqdrift::linalg::fixed::{SMat, SVec};

fn main() {
    println!("device specs (Table 1):");
    for dev in [&PI4, &PICO] {
        println!(
            "  {:<24} {:<24} RAM {:>10.0} kB  OS {}",
            dev.name,
            dev.cpu,
            dev.ram_kb(),
            dev.os
        );
    }

    println!("\ndetector memory (Table 4, fan configuration):");
    let reports: Vec<MemoryReport> = table4::memory_reports();
    for r in &reports {
        println!(
            "  {:<16} detector {:>8.0} kB   (+ model {:>5.0} kB)",
            r.label,
            r.detector_kb(),
            r.model_bytes as f64 / 1024.0
        );
    }

    println!("\nPico feasibility (75% of 264 kB usable):");
    for v in check_budget(&reports, &PICO) {
        println!(
            "  {:<16} total {:>8.0} kB   fits: {}",
            v.label,
            v.total_bytes as f64 / 1024.0,
            if v.fits { "yes" } else { "NO" }
        );
    }

    // The firmware view: fixed-size stack matrices, zero heap in the loop.
    // This is the same Sherman-Morrison update the heap pipeline runs —
    // the tests in seqdrift-linalg prove bit-level parity.
    println!("\nstack-allocated OS-ELM covariance update (no heap):");
    let mut p = SMat::<22, 22>::identity();
    let mut h = SVec::<22>::zeros();
    for (i, v) in h.as_mut_slice().iter_mut().enumerate() {
        *v = ((i as f32) * 0.1).sin() * 0.3;
    }
    let stack_bytes = core::mem::size_of_val(&p) + core::mem::size_of_val(&h);
    let denom = p.oselm_p_update(&h).expect("SPD update");
    println!(
        "  P is 22x22 on the stack ({} bytes); update gain denominator = {:.4}",
        stack_bytes, denom
    );
    println!(
        "  equivalent heap state would be {} bytes — identical arithmetic,\n\
         \x20 but the stack variant never allocates inside the sample loop.",
        bytes_of_scalars(22 * 22 + 22)
    );
}
