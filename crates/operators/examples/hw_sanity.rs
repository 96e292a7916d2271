//! Prints hardware characterization of the paper's Table I operators plus
//! the 16-bit adder anchors — used to calibrate the cell library.

use apx_cells::Library;
use apx_netlist::power::PowerSettings;
use apx_netlist::HwAnalyzer;
use apx_operators::OperatorConfig;

fn main() {
    let lib = Library::fdsoi28();
    let analyzer = HwAnalyzer::new(&lib).with_settings(PowerSettings {
        vectors: 1000,
        seed: 7,
    });
    let configs = [
        OperatorConfig::AddExact { n: 16 },
        OperatorConfig::AddTrunc { n: 16, q: 8 },
        OperatorConfig::Aca { n: 16, p: 4 },
        OperatorConfig::EtaIv { n: 16, x: 4 },
        OperatorConfig::RcaApx {
            n: 16,
            m: 8,
            fa_type: apx_operators::FaType::One,
        },
        OperatorConfig::MulTrunc { n: 16, q: 16 },
        OperatorConfig::Aam { n: 16 },
        OperatorConfig::Abm { n: 16 },
        OperatorConfig::AbmUncorrected { n: 16 },
    ];
    println!(
        "{:<16} {:>9} {:>9} {:>9} {:>9} {:>7}",
        "op", "area um2", "delay ns", "power mW", "pdp pJ", "gates"
    );
    for config in configs {
        let op = config.build();
        let r = analyzer.analyze(&op.netlist());
        println!(
            "{:<16} {:>9.1} {:>9.3} {:>9.4} {:>9.4} {:>7}",
            op.name(),
            r.area_um2,
            r.delay_ns,
            r.power_mw,
            r.pdp_pj,
            r.num_gates
        );
    }
}
