//! Figure 6: the PassMark app comparison across the four system
//! configurations.

use cider_abi::ids::Tid;
use cider_abi::persona::Persona;
use cider_apps::passmark::{AppForm, GlPath, Passmark, PassmarkEnv, Test};
use cider_core::persona::{attach_persona_ext, persona_ext_mut, persona_of};

use crate::config::{SystemConfig, TestBed};
use crate::report::{Table, TableRow};

/// The PassMark variant a configuration runs (§6.3): the Android app on
/// the Android configurations, the iOS app elsewhere; Cider's iOS app
/// reaches the GPU through diplomats, the iPad natively.
pub fn passmark_setup(config: SystemConfig) -> (AppForm, GlPath) {
    match config {
        SystemConfig::VanillaAndroid | SystemConfig::CiderAndroid => {
            (AppForm::AndroidDalvik, GlPath::DirectHost)
        }
        SystemConfig::CiderIos => (AppForm::IosNative, GlPath::Diplomatic),
        SystemConfig::IpadMini => (AppForm::IosNative, GlPath::DirectHost),
    }
}

/// Prepares the PassMark process on a bed: the real app binary is
/// exec'd, and on Cider the thread additionally gets its domestic
/// persona installed (the diplomatic libraries' requirement).
pub fn prepare_passmark_thread(bed: &mut TestBed) -> Tid {
    let (_, tid) = bed.spawn_measured().expect("bench binaries installed");
    let (_, gl_path) = passmark_setup(bed.config);
    if gl_path == GlPath::Diplomatic {
        let linux = bed.sys.kernel.linux_personality();
        persona_ext_mut(&mut bed.sys.kernel, tid)
            .expect("iOS binary carries a persona")
            .install(Persona::Domestic, linux);
    } else if bed.config == SystemConfig::VanillaAndroid
        || bed.config == SystemConfig::CiderAndroid
    {
        debug_assert_eq!(
            persona_of(&bed.sys.kernel, tid).unwrap(),
            Persona::Domestic
        );
    } else {
        // The iPad's app also calls GL "directly"; give the thread a
        // domestic persona slot so the shared host-library path works
        // without a persona extension (it is the device's own library).
        let xnu = bed.sys.xnu_personality;
        if persona_of(&bed.sys.kernel, tid).unwrap() != Persona::Foreign {
            attach_persona_ext(
                &mut bed.sys.kernel,
                tid,
                Persona::Foreign,
                xnu,
            )
            .expect("thread exists");
        }
    }
    tid
}

/// Runs one PassMark test on a bed; returns ops/sec.
pub fn run_test(bed: &mut TestBed, tid: Tid, test: Test) -> Option<f64> {
    let (form, _) = passmark_setup(bed.config);
    run_test_with(bed, tid, test, Passmark::new(form).sizes)
}

/// Like [`run_test`] but with explicit workload sizes (the Criterion
/// benches use [`cider_apps::workloads::Sizes::quick`]).
pub fn run_test_with(
    bed: &mut TestBed,
    tid: Tid,
    test: Test,
    sizes: cider_apps::workloads::Sizes,
) -> Option<f64> {
    let (form, gl_path) = passmark_setup(bed.config);
    let pm = Passmark { form, sizes };
    let mut env = PassmarkEnv {
        sys: &mut bed.sys,
        tid,
        gl_path,
    };
    pm.run(&mut env, test).ok().map(|m| m.ops_per_sec())
}

/// Runs the full Figure 6 table.
pub fn run() -> Table {
    let mut table =
        Table::new("Figure 6: app throughput (PassMark)", "ops/s", false);
    let mut columns: Vec<Vec<Option<f64>>> = Vec::new();
    for config in SystemConfig::ALL {
        let mut bed = TestBed::builder(config).build();
        let tid = prepare_passmark_thread(&mut bed);
        let col: Vec<Option<f64>> = Test::ALL
            .iter()
            .map(|&t| run_test(&mut bed, tid, t))
            .collect();
        columns.push(col);
    }
    for (i, test) in Test::ALL.iter().enumerate() {
        let mut values = [None; 4];
        for (c, col) in columns.iter().enumerate() {
            values[c] = col[i];
        }
        table.rows.push(TableRow {
            group: test.group().to_string(),
            name: test.name().to_string(),
            values,
        });
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_figure6_reproduces_paper_shape() {
        let table = run();
        let cell = |name: &str, c| table.normalized_cell(name, c);
        use SystemConfig::*;

        // Cider adds negligible overhead to the Android PassMark app.
        for name in ["integer", "memory read", "2D solid vectors"] {
            let v = cell(name, CiderAndroid).unwrap();
            assert!((0.9..1.1).contains(&v), "{name} cider android {v}");
        }

        // CPU group: the native iOS app is significantly faster than the
        // interpreted Android app, and Cider beats the iPad (faster CPU).
        for name in [
            "integer",
            "floating point",
            "find primes",
            "data encryption",
            "data compression",
        ] {
            let ci = cell(name, CiderIos).unwrap();
            let ip = cell(name, IpadMini).unwrap();
            assert!(ci > 1.4, "{name} cider ios {ci}");
            assert!(ci > ip, "{name}: cider {ci} vs ipad {ip}");
        }

        // Memory group: same story.
        for name in ["memory write", "memory read"] {
            let ci = cell(name, CiderIos).unwrap();
            assert!(ci > 1.4, "{name} cider ios {ci}");
            assert!(ci > cell(name, IpadMini).unwrap(), "{name}");
        }

        // Storage: the iPad's flash writes much faster; reads similar.
        let w_ip = cell("storage write", IpadMini).unwrap();
        let w_ci = cell("storage write", CiderIos).unwrap();
        assert!(w_ip > w_ci * 1.5, "ipad write {w_ip} vs cider {w_ci}");
        let r_ip = cell("storage read", IpadMini).unwrap();
        assert!((0.6..1.5).contains(&r_ip), "ipad read {r_ip}");

        // 2D: Android wins except complex vectors.
        for name in [
            "2D solid vectors",
            "2D transparent vectors",
            "2D image filters",
        ] {
            let ci = cell(name, CiderIos).unwrap();
            assert!(ci < 1.0, "{name} cider ios {ci}");
        }
        let cplx = cell("2D complex vectors", CiderIos).unwrap();
        assert!(cplx > 1.0, "complex vectors favour iOS: {cplx}");
        // Image rendering additionally suffers the fence bug: Cider iOS
        // underperforms the iPad's iOS app.
        let img_ci = cell("2D image rendering", CiderIos).unwrap();
        let img_ip = cell("2D image rendering", IpadMini).unwrap();
        assert!(img_ci < img_ip, "fence bug: {img_ci} vs ipad {img_ip}");

        // 3D: Cider iOS 20–37 % below the Android app; the iPad's GPU
        // wins outright.
        for name in ["3D simple", "3D complex"] {
            let ci = cell(name, CiderIos).unwrap();
            assert!((0.55..0.85).contains(&ci), "{name} cider ios {ci}");
            let ip = cell(name, IpadMini).unwrap();
            assert!(ip > 1.0, "{name} ipad {ip}");
        }
        // Overhead grows with scene complexity.
        let simple = cell("3D simple", CiderIos).unwrap();
        let complex = cell("3D complex", CiderIos).unwrap();
        assert!(complex < simple, "complex {complex} < simple {simple}");
    }
}
