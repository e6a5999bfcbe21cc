fn main() {
    snapshot_benchmark::main();
}
