//! The processor-design tradeoff of the paper's Conclusion: more windows
//! help the sharing schemes until the register file's access time eats
//! the gain. Sweeps the access-time penalty and reports each scheme's
//! optimal window count.

use regwin_bench::Args;
use regwin_core::figures::Sweep;
use regwin_core::tradeoff::{analyze, AccessTimeModel};
use regwin_core::TextTable;

fn main() {
    let args = Args::parse();
    let engine = args.engine();
    let windows = args.windows();
    eprintln!(
        "High-concurrency sweep ({}% corpus, {} policy, {} timing)...",
        args.scale, args.policy, args.timing
    );
    let records = engine
        .run_matrix(
            &Sweep::high_spec(args.corpus(), &windows, args.policy).with_timing(args.timing),
        )
        .expect("sweep runs");
    let sweep = Sweep::from_records(records);

    let mut optima = TextTable::new(
        "Optimal window count vs register-access penalty (fine granularity)",
        &["penalty/doubling", "NS", "SNP", "SP"],
    );
    for per_doubling in [0.0, 0.04, 0.08, 0.16, 0.32, 0.64] {
        let result = analyze(&sweep, AccessTimeModel { base_windows: 7, per_doubling });
        let best = |label: &str| {
            result
                .optima
                .iter()
                .find(|(l, _)| l == label)
                .map(|(_, n)| n.to_string())
                .unwrap_or_else(|| "-".into())
        };
        optima.row(vec![
            format!("{:.0}%", per_doubling * 100.0),
            best("NS fine"),
            best("SNP fine"),
            best("SP fine"),
        ]);
        if (per_doubling - 0.08).abs() < 1e-9 {
            println!("{}", result.table);
            args.save_csv("tradeoff_8pct", &result.table);
        }
    }
    println!("{optima}");
    println!(
        "Conclusion implication 2, quantified: with cheap register access the\n\
         sharing schemes profit from big files; as access scaling worsens the\n\
         optimum shrinks toward the S-20's 7-8 windows — while NS never\n\
         benefits from more windows at all."
    );
    args.save_csv("tradeoff_optima", &optima);
    args.finish(&engine);
}
