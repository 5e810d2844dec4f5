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
