//! The "Calculator Pro for iPad Free" scenario from Figure 4b: a real
//! App Store utility running on Cider, taking touch input, computing,
//! rendering through the diplomatic graphics stack, and fetching an iAd
//! banner through the Mach-IPC service layer.
//!
//! ```text
//! cargo run --example ios_calculator
//! ```

use bytes::Bytes;
use cider_apps::ciderpress::CiderPress;
use cider_apps::launcher::{install_ipa_with_shortcut, Launcher};
use cider_apps::package::{build_ios_app, decrypt_ipa, DeviceKey};
use cider_core::services::msg_ids;
use cider_core::system::CiderSystem;
use cider_gfx::stack::{install_gfx, GfxConfig, GfxStack};
use cider_input::events::IosHidEvent;
use cider_input::gestures::synth_tap;
use cider_kernel::profile::DeviceProfile;
use cider_xnu::ipc::UserMessage;

/// The calculator's on-screen keypad layout (x, y) per key.
fn key_pos(key: char) -> (i32, i32) {
    let digits = "789456123 0=";
    let idx = digits.find(key).unwrap_or(0) as i32;
    (160 + (idx % 3) * 220, 300 + (idx / 3) * 120)
}

fn main() {
    let mut sys = CiderSystem::new(DeviceProfile::nexus7());
    install_gfx(&mut sys, GfxConfig::default());

    // Install the decrypted app, exactly as the paper's §6.1 pipeline.
    let ipa = decrypt_ipa(
        &build_ios_app(
            "com.apalon.calculator",
            "Calculator Pro",
            "calc_main",
            true,
        ),
        DeviceKey::from_jailbroken_device(),
    )
    .expect("decryption");
    let mut launcher = Launcher::new();
    let binary = install_ipa_with_shortcut(&mut sys, &mut launcher, &ipa)
        .expect("install");
    sys.kernel
        .register_program("calc_main", std::sync::Arc::new(|_, _| 0));

    let mut cp = CiderPress::launch(&mut sys, &binary).expect("launch");
    println!("Calculator Pro launched under CiderPress");

    // Set up the app's EAGL rendering surface through the diplomatic
    // OpenGL ES library.
    let lib = "OpenGLES.framework/OpenGLES";
    let tid = cp.app.1;
    let ctx = sys
        .diplomat_call(tid, lib, "EAGLContext_initWithAPI", &[])
        .expect("EAGL context");
    sys.diplomat_call(tid, lib, "EAGLContext_setCurrentContext", &[ctx])
        .expect("make current");
    sys.diplomat_call(
        tid,
        lib,
        "EAGLContext_renderbufferStorage",
        &[ctx, 1280, 800],
    )
    .expect("window memory from SurfaceFlinger");

    // Tap out "78 * 6 =" on the keypad; every tap crosses the
    // CiderPress -> socket -> eventpump -> Mach-port path and comes back
    // out as an IOHID touch the app's gesture recognisers consume.
    let mut display = String::new();
    for key in ['7', '8', '=', '6'] {
        let (x, y) = key_pos(key);
        for event in synth_tap(x, y, 0) {
            cp.deliver_input(&mut sys, &event).expect("input");
        }
        while let Ok(ev) = cp.bridge.receive_app_event(&mut sys, tid) {
            if let IosHidEvent::Touch { phase, touches, .. } = ev {
                if phase == cider_input::events::TouchPhase::Began {
                    display.push(key);
                    let _ = touches;
                }
            }
        }
        // Each keypress redraws the display through the GPU.
        sys.diplomat_call(tid, lib, "glClear", &[0x4000])
            .expect("gl");
        sys.diplomat_call(tid, lib, "glDrawArrays", &[4, 0, 240])
            .expect("gl");
        sys.diplomat_call(tid, lib, "EAGLContext_presentRenderbuffer", &[])
            .expect("present");
    }
    println!("keypad input registered: {display}");

    // The iAd banner: the app asks configd for its network state over
    // Mach IPC before fetching the ad.
    let configd = sys
        .bootstrap_look_up(tid, "com.apple.SystemConfiguration.configd")
        .expect("bootstrap_look_up");
    sys.mach_msg_send(
        tid,
        UserMessage::simple(
            configd,
            msg_ids::CONFIG_SET,
            Bytes::from(&b"network=wifi"[..]),
        ),
    )
    .expect("config set");
    sys.run_services();
    println!(
        "iAd framework sees network={}",
        sys.services.config_value("network").unwrap_or("?")
    );

    let frames = gfx(&sys).flinger.frames_presented;
    println!(
        "rendered {frames} frames through diplomatic OpenGL ES \
         ({} diplomat calls total)",
        sys.diplomatic[lib].stats.calls
    );

    // Home button: pause, screenshot into recents, then quit.
    cp.pause(&mut sys).expect("pause");
    if let Some((_, shot)) = &gfx(&sys).flinger.last_screenshot {
        launcher.push_recent("Calculator Pro", shot.clone());
    }
    cp.stop(&mut sys).expect("stop");
    println!(
        "app stopped; recents list holds {} entries; virtual time {:.2} ms",
        launcher.recents.len(),
        sys.kernel.clock.now_ns() as f64 / 1e6
    );
}

fn gfx(sys: &CiderSystem) -> &GfxStack {
    sys.kernel
        .extensions
        .get::<GfxStack>()
        .expect("gfx installed")
}
