//! Regenerates the paper's figures and tables as text.
//!
//! ```sh
//! cargo run -p btadt-bench --release --bin experiments -- all
//! cargo run -p btadt-bench --release --bin experiments -- fig8 table1
//! ```

use std::env;

fn usage() -> ! {
    eprintln!("usage: experiments <exp>…");
    eprintln!("experiments: fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10");
    eprintln!("             fig11 fig12 fig13 fig14 table1 ablate-k");
    eprintln!("             ablate-selection peercensus-security fairness all");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    for arg in &args {
        match arg.as_str() {
            "fig1" => btadt_bench::fig1(),
            "fig2" => btadt_bench::fig2(),
            "fig3" => btadt_bench::fig3(),
            "fig4" => btadt_bench::fig4(),
            "fig5" => btadt_bench::fig5(),
            "fig6" => btadt_bench::fig6(),
            "fig7" => btadt_bench::fig7(),
            "fig8" => btadt_bench::fig8(),
            "fig9" => btadt_bench::fig9(),
            "fig10" => btadt_bench::fig10(),
            "fig11" => btadt_bench::fig11(),
            "fig12" => btadt_bench::fig12(),
            "fig13" => btadt_bench::fig13(),
            "fig14" => btadt_bench::fig14(),
            "table1" => btadt_bench::table1_exp(),
            "ablate-k" => btadt_bench::ablate_k(),
            "ablate-selection" => btadt_bench::ablate_selection(),
            "peercensus-security" => btadt_bench::peercensus_security(),
            "fairness" => btadt_bench::fairness(),
            "all" => btadt_bench::all(),
            other => {
                eprintln!("unknown experiment: {other}");
                usage();
            }
        }
    }
}
