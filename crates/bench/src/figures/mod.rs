//! One module per table/figure of the paper's evaluation.

pub mod fig10;
pub mod fig11;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod table1;
pub mod table2;

use crate::harness::FigCli;
use crate::table::TableDoc;

/// Runs one experiment under the figure binaries' flags.
pub type Run = fn(FigCli) -> FigureReport;

/// The [`Run`] of a figure module whose `Opts` come in `quick` and `paper`
/// sizes and carry the `scale` the flags apply to.
macro_rules! scaled {
    ($fig:ident) => {
        |cli: FigCli| {
            let mut opts = if cli.quick { $fig::Opts::quick() } else { $fig::Opts::paper() };
            opts.scale = cli.apply(opts.scale);
            $fig::run(&opts)
        }
    };
}

/// Every experiment, by the name of the binary that prints it, in report
/// order. Table 1's probe has one size and its own clock: it takes the
/// flags and ignores them.
pub const EXPERIMENTS: [(&str, Run); 9] = [
    ("table1", |_| table1::run()),
    ("table2", scaled!(table2)),
    ("fig5", scaled!(fig5)),
    ("fig6", scaled!(fig6)),
    ("fig7", scaled!(fig7)),
    ("fig8", scaled!(fig8)),
    ("fig9", scaled!(fig9)),
    ("fig10", scaled!(fig10)),
    ("fig11", scaled!(fig11)),
];

/// The `main` of the binary `name`: parses [`FigCli`], runs its experiment
/// and prints the report.
///
/// # Panics
/// Panics if `name` is not in [`EXPERIMENTS`].
pub fn main(name: &str) {
    let cli = FigCli::parse();
    let (_, run) = EXPERIMENTS.iter().find(|(n, _)| *n == name).expect("a figure binary's name");
    run(cli).print();
}

/// The output of one experiment reproduction.
#[derive(Debug)]
pub struct FigureReport {
    /// Identifier, e.g. `"Figure 7"`.
    pub id: &'static str,
    /// What the paper reports for this experiment (for EXPERIMENTS.md).
    pub paper_claim: &'static str,
    /// Rendered result tables.
    pub tables: Vec<TableDoc>,
    /// Shape observations computed from the measured data (who wins, by
    /// what factor) — the reproduction target.
    pub observations: Vec<String>,
}

impl FigureReport {
    /// Renders the report as markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = format!("## {}\n\n**Paper:** {}\n\n", self.id, self.paper_claim);
        for t in &self.tables {
            out.push_str(&t.to_markdown());
            out.push('\n');
        }
        if !self.observations.is_empty() {
            out.push_str("**Measured shape:**\n\n");
            for o in &self.observations {
                out.push_str(&format!("- {o}\n"));
            }
            out.push('\n');
        }
        out
    }

    /// Prints the report to stdout.
    pub fn print(&self) {
        println!("{}", self.to_markdown());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_figure_binary_runs_through_the_table() {
        let bin = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
        let mut stems: Vec<String> = std::fs::read_dir(bin)
            .unwrap()
            .map(|e| e.unwrap().path().file_stem().unwrap().to_string_lossy().into_owned())
            .filter(|stem| stem != "repro_all")
            .collect();
        stems.sort();
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
        names.sort();
        assert_eq!(stems, names);
    }
}
