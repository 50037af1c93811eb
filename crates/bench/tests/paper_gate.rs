//! Paper gate: every experiment binary must reproduce its captured
//! `results/<name>.txt` byte for byte. The binaries are seeded and
//! deterministic, so any drift is a real change to a reproduced table or
//! figure and has to be made on purpose.
//!
//! The binaries fast enough for a debug `cargo test` run in the plain
//! suite; the slow ones are `#[ignore]`d and run in release:
//!
//! ```text
//! cargo test --release -p pstorm-bench --test paper_gate -- --ignored
//! ```
//!
//! Regenerate the captures after an intentional change (stdout goes to
//! `<name>.txt`; stderr to `<name>.log` where one is kept):
//!
//! ```text
//! UPDATE_RESULTS=1 cargo test --release -p pstorm-bench --test paper_gate -- --include-ignored
//! ```

use std::path::PathBuf;
use std::process::Command;

/// Run one experiment binary and diff its stdout against its capture.
fn gate(name: &str, exe: &str, envs: &[(&str, &str)]) {
    let out = Command::new(exe)
        .envs(envs.iter().copied())
        .output()
        .unwrap_or_else(|e| panic!("{name}: cannot run {exe}: {e}"));
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{name} exited with {}:\n{stderr}",
        out.status
    );

    let results = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let txt = results.join(format!("{name}.txt"));
    if std::env::var_os("UPDATE_RESULTS").is_some() {
        std::fs::write(&txt, &stdout).unwrap();
        let log = results.join(format!("{name}.log"));
        if log.exists() {
            std::fs::write(&log, stderr.as_bytes()).unwrap();
        }
        return;
    }
    let expected = std::fs::read_to_string(&txt)
        .unwrap_or_else(|e| panic!("{name}: cannot read results/{name}.txt: {e}"));
    if stdout == expected {
        return;
    }
    let mut want = expected.lines();
    let mut got = stdout.lines();
    for line in 1.. {
        let (w, g) = (want.next(), got.next());
        if w != g {
            panic!(
                "{name} drifted from results/{name}.txt at line {line}:\n  \
                 expected: {w:?}\n  actual:   {g:?}\n\
                 If the change is intentional, regenerate with UPDATE_RESULTS=1."
            );
        }
        if w.is_none() {
            break;
        }
    }
    panic!("{name} drifted from results/{name}.txt in line endings only");
}

/// One test per figure, named after its binary and capture; `slow`
/// figures are ignored in the plain suite.
macro_rules! figure {
    (slow $name:ident $(, $key:literal = $val:literal)*) => {
        figure!(#[ignore = "slow in debug builds"] $name $(, $key = $val)*);
    };
    ($(#[$attr:meta])* $name:ident $(, $key:literal = $val:literal)*) => {
        $(#[$attr])*
        #[test]
        fn $name() {
            let exe = env!(concat!("CARGO_BIN_EXE_", stringify!($name)));
            gate(stringify!($name), exe, &[$(($key, $val)),*]);
        }
    };
}

// Debug-build wall time on a 2-core x86 VM: fig1_3 17 s, fig4_1 26 s,
// fig4_3 4 s, fig4_5 7 s, fig4_6 7 s, sec5_2_models 0.3 s, table6_1 2 s,
// table6_2 6 s; sec7_2_extensions 37 s and fig6_3 68 s, with fig6_1,
// fig6_2 and ablations slower still (release: 49 s, 91 s, 67 s).
figure!(fig1_3);
figure!(fig4_1);
figure!(fig4_3);
figure!(fig4_5);
figure!(fig4_6);
figure!(sec5_2_models);
figure!(table6_1);
figure!(table6_2);
figure!(slow fig6_1);
figure!(slow fig6_2, "PSTORM_GBRT_SCALE" = "0.1");
figure!(slow fig6_3);
figure!(slow sec7_2_extensions);
figure!(slow ablations);
