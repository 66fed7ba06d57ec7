fn main() -> std::process::ExitCode {
    bench_e2e::main()
}
