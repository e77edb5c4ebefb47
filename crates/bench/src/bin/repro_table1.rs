//! Regenerate Table 1: specifications of the tested devices.

use psc_bench::banner;
use psc_core::experiments::screening::run_table1;

fn main() {
    println!("{}", banner("Table 1 — tested device specifications"));
    println!("{}", run_table1().render());
    println!(
        "Note: the paper's Table 1 prints E-core maxima of 2.4 GHz (M1) and\n\
         2.06 GHz (M2), but §4 reports M2 E-cores at 2.424 GHz. We follow the\n\
         silicon (M1 E 2.064 GHz, M2 E 2.424 GHz)."
    );
}
