//! Chaos soak: kill/resume bit-equivalence across plans and checkpoint cadences.
fn main() {
    let cfg = hcapp_experiments::ExperimentConfig::from_env();
    std::fs::create_dir_all(&cfg.out_dir).expect("create results dir");
    let table = hcapp_experiments::soak::run(&cfg);
    print!("{}", table.render());
}
