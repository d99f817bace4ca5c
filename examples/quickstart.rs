//! Quickstart: boot a Cider device, install an App Store app, and run it.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Walks the paper's end-to-end flow: decrypt an `.ipa` with a
//! jailbroken device's key (§6.1), let the background unpacker install
//! it and create a Launcher shortcut (§3), launch it through CiderPress,
//! deliver a touch, and read the app's output.

use cider_apps::ciderpress::CiderPress;
use cider_apps::launcher::{install_ipa_with_shortcut, Launcher};
use cider_apps::package::{build_ios_app, decrypt_ipa, DeviceKey};
use cider_core::system::CiderSystem;
use cider_gfx::stack::{install_gfx, GfxConfig};
use cider_input::gestures::synth_tap;
use cider_kernel::profile::DeviceProfile;

fn main() {
    // 1. Boot the Nexus 7 with the Cider kernel extensions.
    let mut sys = CiderSystem::new(DeviceProfile::nexus7());
    let report = install_gfx(&mut sys, GfxConfig::default());
    println!(
        "booted {}: {} GL diplomats generated, {} EAGL bridges",
        sys.kernel.profile.name, report.matched, report.bridged_eagl
    );

    // 2. An encrypted App Store app arrives; decrypt it the way the
    //    paper did, on a jailbroken device.
    let store_ipa =
        build_ios_app("com.example.hello", "HelloIOS", "app_main", true);
    assert!(store_ipa.is_encrypted());
    let ipa = decrypt_ipa(&store_ipa, DeviceKey::from_jailbroken_device())
        .expect("jailbroken device key");

    // 3. The background unpacker installs it and creates a home-screen
    //    shortcut pointing at CiderPress.
    let mut launcher = Launcher::new();
    launcher.add_android_app("Gmail", "com.google.android.gm");
    let binary = install_ipa_with_shortcut(&mut sys, &mut launcher, &ipa)
        .expect("install");
    println!(
        "installed {binary}; home screen now shows {} shortcuts",
        launcher.shortcuts.len()
    );

    // 4. Register what the app's main() does, then tap the shortcut.
    sys.kernel.register_program(
        "app_main",
        std::sync::Arc::new(|k, tid| {
            let _ = k.sys_write(
                tid,
                cider_abi::ids::Fd::STDOUT,
                b"Hello from an unmodified iOS binary!\n",
            );
            0
        }),
    );
    let mut cp = CiderPress::launch(&mut sys, &binary).expect("launch");
    println!(
        "launched: app pid {} runs the {} persona",
        cp.app.0,
        cider_core::persona::persona_of(&sys.kernel, cp.app.1)
            .expect("thread exists")
    );

    // 5. A tap travels CiderPress -> BSD socket -> eventpump -> Mach port.
    for event in synth_tap(640, 400, 0) {
        cp.deliver_input(&mut sys, &event).expect("input path");
    }
    println!(
        "delivered a tap ({} events through the eventpump)",
        cp.bridge.events_forwarded
    );

    // 6. Run the app's main and read its console.
    let code = sys.kernel.run_entry(cp.app.1).expect("app main");
    let console = sys.kernel.console_of(cp.app.0).expect("process");
    print!(
        "app exited {code}; console: {}",
        String::from_utf8_lossy(console)
    );

    println!(
        "virtual time elapsed: {:.3} ms",
        sys.kernel.clock.now_ns() as f64 / 1e6,
    );
}
