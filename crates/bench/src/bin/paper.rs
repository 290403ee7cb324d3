//! Regenerates every simulated paper artifact: writes each
//! `results/<name>.txt` of `phoenix_bench::paper`'s artifact table, prints
//! each paper row against its measurement, writes
//! `results/BENCH_kernel.json`, and exits 1 when a row falls outside its
//! tolerance. Takes no options.
//!
//! cargo run --release -p phoenix-bench --bin paper

fn main() {
    phoenix_bench::paper::main();
}
