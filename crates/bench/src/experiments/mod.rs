//! One module per reproduced table, figure, inline claim, or ablation.
//! DESIGN.md's experiment index maps each to the paper.

pub mod ablate_batching;
pub mod ablate_mappings;
pub mod ablate_rereg;
pub mod ablate_ttl;
pub mod chaos;
pub mod comparison;
pub mod eq1;
pub mod figure21;
pub mod hit_ratios;
pub mod mappings;
pub mod overhead;
pub mod preload;
pub mod register;
pub mod scalability;
pub mod scale;
pub mod table31;
pub mod table32;
pub mod timeline;
pub mod traced;
pub mod work;

/// One table: its id and what prints it.
pub type Table = (&'static str, fn() -> String);

/// The deterministic virtual-time tables, in the order `experiments all`
/// prints them.
pub const TABLES: &[Table] = &[
    ("table31", || table31::run().render()),
    ("table32", || {
        let standard = table32::run_standard_routines().render();
        format!("{}\n{standard}", table32::run().render())
    }),
    ("overhead", || overhead::run().render()),
    ("comparison", || comparison::run().render()),
    ("preload", || {
        let results = preload::run();
        format!(
            "{}\n{}\nbreak-even (paper accounting): {:?} calls\n\
             break-even (measured, shared entries): {:?} calls\n",
            results.headline.render(),
            results.sweep.render(),
            results.break_even_paper_model,
            results.break_even_measured
        )
    }),
    ("eq1", || {
        let results = eq1::run();
        let sweep = results.sweep.render();
        format!("{}\n{sweep}", results.thresholds.render())
    }),
    ("figure21", figure21::run),
    ("hit-ratios", || hit_ratios::run().table.render()),
    ("mappings", || mappings::run().render()),
    ("ablate-batching", || ablate_batching::run().render()),
    ("ablate-mappings", || ablate_mappings::run().render()),
    ("ablate-ttl", || ablate_ttl::run().render()),
    ("scalability", || scalability::run().render()),
    ("ablate-rereg", || ablate_rereg::run().render()),
    ("traced", || traced::run().render()),
];
