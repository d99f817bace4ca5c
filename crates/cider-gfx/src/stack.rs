//! The assembled graphics stack and its library surface.
//!
//! [`GfxStack`] owns the GPU, gralloc, SurfaceFlinger, and EGL state of
//! one device. [`install_gfx`] stores it in the kernel's extensions,
//! where every export reaches it through `Kernel::with_ext` (no shared
//! handle, no lock), and wires it into a [`CiderSystem`]: the domestic
//! libraries (`libGLESv2.so`, `libEGL.so`, `libgralloc.so`, and the
//! custom `libEGLbridge.so` of paper §5.3) are registered as runtime
//! export tables, the Cider **diplomatic OpenGL ES library** is generated
//! by symbol matching (with EAGL extensions routed to libEGLbridge), the
//! **diplomatic IOSurface** entry points are interposed onto gralloc, and
//! the `AppleM2CLCD` framebuffer driver class is registered with I/O Kit.

use std::sync::Arc;

use cider_abi::errno::Errno;
use cider_core::diplomat::{Diplomat, DiplomaticLibrary};
use cider_core::library::NativeLibrary;
use cider_core::system::CiderSystem;
use cider_kernel::kernel::Kernel;

use crate::gles::{api, ContextId, Egl};
use crate::gpu::SimGpu;
use crate::gralloc::{BufferId, Gralloc, PixelFormat};
use crate::surfaceflinger::SurfaceFlinger;

/// The graphics stack.
#[derive(Debug, Default)]
pub struct GfxStack {
    /// The GPU.
    pub gpu: SimGpu,
    /// Graphics memory.
    pub gralloc: Gralloc,
    /// The compositor.
    pub flinger: SurfaceFlinger,
    /// EGL contexts.
    pub egl: Egl,
}

impl GfxStack {
    /// Fresh stack.
    pub fn new() -> GfxStack {
        GfxStack::default()
    }
}

/// Configuration for [`install_gfx`].
#[derive(Debug, Clone, Copy)]
pub struct GfxConfig {
    /// Whether the Cider OpenGL ES replacement library carries the §6.3
    /// fence-synchronisation bug (true for the prototype).
    pub fence_bug: bool,
}

impl Default for GfxConfig {
    fn default() -> Self {
        GfxConfig { fence_bug: true }
    }
}

/// The exported symbols of the iOS OpenGLES framework: the standard GL
/// API plus Apple's EAGL extensions (paper §5.3).
pub fn ios_opengles_exports() -> Vec<&'static str> {
    let mut v = standard_gles_symbols();
    v.extend(EAGL_SYMBOLS);
    v
}

/// The standardised OpenGL ES symbols both ecosystems export.
pub fn standard_gles_symbols() -> Vec<&'static str> {
    vec![
        "glActiveTexture",
        "glAttachShader",
        "glBindBuffer",
        "glBindTexture",
        "glBlendFunc",
        "glBufferData",
        "glClear",
        "glClearColor",
        "glClientWaitSync",
        "glCompileShader",
        "glCreateProgram",
        "glCreateShader",
        "glDisable",
        "glDrawArrays",
        "glDrawElements",
        "glEnable",
        "glFenceSync",
        "glFinish",
        "glFlush",
        "glGenBuffers",
        "glGenTextures",
        "glGetError",
        "glLinkProgram",
        "glShaderSource",
        "glTexImage2D",
        "glTexParameteri",
        "glUniform4f",
        "glUniformMatrix4fv",
        "glUseProgram",
        "glVertexAttribPointer",
        "glViewport",
    ]
}

/// Apple's EAGL extension symbols (no Android equivalent; bridged).
pub const EAGL_SYMBOLS: [&str; 4] = [
    "EAGLContext_initWithAPI",
    "EAGLContext_setCurrentContext",
    "EAGLContext_renderbufferStorage",
    "EAGLContext_presentRenderbuffer",
];

/// Argument `i` of a library call (`0` when absent).
fn arg(args: &[i64], i: usize) -> i64 {
    args.get(i).copied().unwrap_or(0)
}

/// Runs `f` with the device's [`GfxStack`] taken out of the kernel's
/// extensions (see `Kernel::with_ext`).
///
/// # Errors
///
/// `ENODEV` when no stack is installed; otherwise whatever `f` returns.
pub fn with_gfx<R>(
    k: &mut Kernel,
    f: impl FnOnce(&mut Kernel, &mut GfxStack) -> Result<R, Errno>,
) -> Result<R, Errno> {
    k.with_ext(f).unwrap_or(Err(Errno::ENODEV))
}

/// Exports `sym` as a [`with_gfx`] call into the device's stack.
fn export_gfx(
    lib: &mut NativeLibrary,
    sym: &str,
    f: fn(&mut Kernel, &mut GfxStack, &[i64]) -> Result<i64, Errno>,
) {
    lib.export(
        sym,
        Arc::new(move |k, _t, args| with_gfx(k, |k, g| f(k, g, args))),
    );
}

fn make_current(s: &mut GfxStack, args: &[i64]) -> Result<i64, Errno> {
    s.egl
        .make_current(ContextId(arg(args, 0) as u64))
        .map(|_| 0)
}

fn create_window_surface(
    s: &mut GfxStack,
    args: &[i64],
) -> Result<i64, Errno> {
    let ctx = ContextId(arg(args, 0) as u64);
    let (w, h) = (arg(args, 1) as u32, arg(args, 2) as u32);
    s.egl
        .create_window_surface(&mut s.flinger, &mut s.gralloc, ctx, w, h)
        .map(|sid| sid.0 as i64)
}

fn swap_buffers(k: &mut Kernel, s: &mut GfxStack) -> Result<i64, Errno> {
    s.egl
        .swap_buffers(k, &mut s.gpu, &mut s.flinger, &s.gralloc)
        .map(|_| 0)
}

/// Builds the domestic `libGLESv2.so` export table.
pub fn build_libglesv2() -> NativeLibrary {
    let mut lib = NativeLibrary::new("libGLESv2.so");
    export_gfx(&mut lib, "glClear", |k, s, args| {
        api::gl_clear(k, &mut s.egl, &mut s.gpu, arg(args, 0))
    });
    export_gfx(&mut lib, "glClearColor", |k, s, args| {
        api::gl_clear_color(k, &mut s.egl, arg(args, 0))
    });
    export_gfx(&mut lib, "glDrawArrays", |k, s, args| {
        api::gl_draw_arrays(k, &mut s.egl, &mut s.gpu, arg(args, 2))
    });
    export_gfx(&mut lib, "glDrawElements", |k, s, args| {
        api::gl_draw_arrays(k, &mut s.egl, &mut s.gpu, arg(args, 1))
    });
    export_gfx(&mut lib, "glBindTexture", |k, s, args| {
        api::gl_bind_texture(k, &mut s.egl, arg(args, 1))
    });
    export_gfx(&mut lib, "glGenTextures", |k, s, _| {
        api::gl_gen_texture(k, &mut s.egl)
    });
    export_gfx(&mut lib, "glTexImage2D", |k, s, args| {
        api::gl_tex_image_2d(k, &mut s.egl, &mut s.gpu, arg(args, 0))
    });
    export_gfx(&mut lib, "glUseProgram", |k, s, args| {
        api::gl_use_program(k, &mut s.egl, arg(args, 0))
    });
    export_gfx(&mut lib, "glEnable", |k, s, args| {
        api::gl_enable(k, &mut s.egl, arg(args, 0))
    });
    export_gfx(&mut lib, "glFenceSync", |k, s, _| {
        api::gl_fence_sync(k, &mut s.egl, &mut s.gpu)
    });
    export_gfx(&mut lib, "glClientWaitSync", |k, s, args| {
        api::gl_client_wait_sync(k, &mut s.egl, &mut s.gpu, arg(args, 0))
    });
    export_gfx(&mut lib, "glFinish", |k, s, _| {
        api::gl_finish(k, &mut s.egl, &mut s.gpu)
    });
    for sym in [
        "glActiveTexture",
        "glAttachShader",
        "glBindBuffer",
        "glBlendFunc",
        "glBufferData",
        "glCompileShader",
        "glCreateProgram",
        "glCreateShader",
        "glDisable",
        "glFlush",
        "glGenBuffers",
        "glGetError",
        "glLinkProgram",
        "glShaderSource",
        "glTexParameteri",
        "glUniform4f",
        "glUniformMatrix4fv",
        "glVertexAttribPointer",
        "glViewport",
    ] {
        export_gfx(&mut lib, sym, |k, s, _| {
            k.charge_cpu(crate::gles::GL_DISPATCH_NS);
            s.egl.current_mut()?.total_calls += 1;
            Ok(0)
        });
    }
    lib
}

/// Builds the domestic `libEGL.so` export table.
pub fn build_libegl() -> NativeLibrary {
    let mut lib = NativeLibrary::new("libEGL.so");
    export_gfx(&mut lib, "eglCreateContext", |k, s, _| {
        k.charge_cpu(4_000);
        Ok(s.egl.create_context().0 as i64)
    });
    export_gfx(&mut lib, "eglCreateWindowSurface", |k, s, args| {
        k.charge_cpu(20_000);
        create_window_surface(s, args)
    });
    export_gfx(&mut lib, "eglMakeCurrent", |k, s, args| {
        k.charge_cpu(2_500);
        make_current(s, args)
    });
    export_gfx(&mut lib, "eglSwapBuffers", |k, s, _| swap_buffers(k, s));
    lib
}

/// Builds the domestic `libgralloc.so` export table.
pub fn build_libgralloc() -> NativeLibrary {
    let mut lib = NativeLibrary::new("libgralloc.so");
    export_gfx(&mut lib, "gralloc_alloc", |k, s, args| {
        k.charge_cpu(9_000); // ion allocation + map
        let (w, h) = (arg(args, 0) as u32, arg(args, 1) as u32);
        s.gralloc
            .alloc(w, h, PixelFormat::Rgba8888)
            .map(|b| b.0 as i64)
    });
    export_gfx(&mut lib, "gralloc_lock", |k, s, args| {
        k.charge_cpu(600);
        let b = s.gralloc.get_mut(BufferId(arg(args, 0) as u64))?;
        if b.locked {
            return Err(Errno::EBUSY);
        }
        b.locked = true;
        Ok(0)
    });
    export_gfx(&mut lib, "gralloc_unlock", |k, s, args| {
        k.charge_cpu(600);
        let b = s.gralloc.get_mut(BufferId(arg(args, 0) as u64))?;
        if !b.locked {
            return Err(Errno::EINVAL);
        }
        b.locked = false;
        Ok(0)
    });
    export_gfx(&mut lib, "gralloc_retain", |k, s, args| {
        k.charge_cpu(300);
        s.gralloc.retain(BufferId(arg(args, 0) as u64)).map(|_| 0)
    });
    export_gfx(&mut lib, "gralloc_release", |k, s, args| {
        k.charge_cpu(300);
        s.gralloc.release(BufferId(arg(args, 0) as u64)).map(|_| 0)
    });
    lib
}

/// Builds `libEGLbridge.so` — "a custom domestic Android library ...
/// that utilizes Android's libEGL library and SurfaceFlinger service to
/// provide functionality corresponding to the missing EAGL functions"
/// (paper §5.3).
pub fn build_libeglbridge() -> NativeLibrary {
    let mut lib = NativeLibrary::new("libEGLbridge.so");
    export_gfx(&mut lib, "EAGLBridge_initWithAPI", |k, s, _| {
        k.charge_cpu(5_000);
        Ok(s.egl.create_context().0 as i64)
    });
    export_gfx(&mut lib, "EAGLBridge_setCurrent", |k, s, args| {
        k.charge_cpu(2_500);
        make_current(s, args)
    });
    export_gfx(&mut lib, "EAGLBridge_renderbufferStorage", |k, s, args| {
        // Window memory comes from SurfaceFlinger, so "Cider manage[s]
        // the iOS display in the same manner that all Android app
        // windows are managed" (§5.3).
        k.charge_cpu(22_000);
        create_window_surface(s, args)
    });
    export_gfx(&mut lib, "EAGLBridge_present", |k, s, _| swap_buffers(k, s));
    // The buggy fence wait used by the prototype's Cider OpenGL ES
    // library (§6.3).
    export_gfx(&mut lib, "glClientWaitSync_cider", |k, s, args| {
        let was = s.gpu.fence_bug;
        s.gpu.fence_bug = true;
        let r =
            api::gl_client_wait_sync(k, &mut s.egl, &mut s.gpu, arg(args, 0));
        s.gpu.fence_bug = was;
        r
    });
    lib
}

/// What [`install_gfx`] produced, for assertions and reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GfxInstallReport {
    /// GL symbols matched automatically by the generation script.
    pub matched: usize,
    /// EAGL symbols bridged by hand-written diplomats.
    pub bridged_eagl: usize,
    /// Whether the buggy fence path is wired.
    pub fence_bug: bool,
}

/// Installs the full graphics stack into a Cider system — the
/// [`GfxStack`] itself goes into the kernel's extensions — and returns
/// a report.
pub fn install_gfx(
    sys: &mut CiderSystem,
    config: GfxConfig,
) -> GfxInstallReport {
    sys.kernel.extensions.insert(GfxStack::new());
    sys.register_library(build_libglesv2());
    sys.register_library(build_libegl());
    sys.register_library(build_libgralloc());
    sys.register_library(build_libeglbridge());

    // The generation script: match the iOS OpenGLES exports against the
    // domestic libraries.
    let exports = ios_opengles_exports();
    let (mut gles_diplomatic, unmatched) = DiplomaticLibrary::generate(
        "OpenGLES.framework/OpenGLES",
        &exports,
        &sys.host,
    );
    let matched = gles_diplomatic.len();

    // EAGL extensions: hand-written diplomats into libEGLbridge.
    let mut bridged = 0;
    for sym in unmatched {
        let target = match sym.as_str() {
            "EAGLContext_initWithAPI" => "EAGLBridge_initWithAPI",
            "EAGLContext_setCurrentContext" => "EAGLBridge_setCurrent",
            "EAGLContext_renderbufferStorage" => {
                "EAGLBridge_renderbufferStorage"
            }
            "EAGLContext_presentRenderbuffer" => "EAGLBridge_present",
            _ => continue,
        };
        gles_diplomatic.install(Diplomat::new(sym, "libEGLbridge.so", target));
        bridged += 1;
    }

    // The prototype's fence bug lives in the Cider OpenGL ES library's
    // wait path.
    if config.fence_bug {
        gles_diplomatic.install(Diplomat::new(
            "glClientWaitSync",
            "libEGLbridge.so",
            "glClientWaitSync_cider",
        ));
    }

    sys.install_diplomatic(gles_diplomatic);

    // Diplomatic IOSurface: interposed entry points calling libgralloc
    // (paper §5.3).
    let mut iosurface =
        DiplomaticLibrary::new("IOSurface.framework/IOSurface");
    for (foreign, domestic) in [
        ("IOSurfaceCreate", "gralloc_alloc"),
        ("IOSurfaceLock", "gralloc_lock"),
        ("IOSurfaceUnlock", "gralloc_unlock"),
        ("IOSurfaceIncrementUseCount", "gralloc_retain"),
        ("IOSurfaceDecrementUseCount", "gralloc_release"),
    ] {
        iosurface.install(Diplomat::new(foreign, "libgralloc.so", domestic));
    }
    sys.install_diplomatic(iosurface);

    // The AppleM2CLCD framebuffer driver (paper §5.1).
    crate::fbdriver::register_display_driver(sys);

    GfxInstallReport {
        matched,
        bridged_eagl: bridged,
        fence_bug: config.fence_bug,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cider_abi::persona::Persona;
    use cider_core::persona::{attach_persona_ext, persona_ext_mut};
    use cider_kernel::profile::DeviceProfile;

    fn foreign_thread(sys: &mut CiderSystem) -> cider_abi::ids::Tid {
        let (_, tid) = sys.spawn_process();
        attach_persona_ext(
            &mut sys.kernel,
            tid,
            Persona::Foreign,
            sys.xnu_personality,
        )
        .unwrap();
        let linux = sys.kernel.linux_personality();
        persona_ext_mut(&mut sys.kernel, tid)
            .unwrap()
            .install(Persona::Domestic, linux);
        tid
    }

    fn gfx(sys: &CiderSystem) -> &GfxStack {
        sys.kernel.extensions.get::<GfxStack>().unwrap()
    }

    #[test]
    fn install_matches_standard_symbols_and_bridges_eagl() {
        let mut sys = CiderSystem::new(DeviceProfile::nexus7());
        let report = install_gfx(&mut sys, GfxConfig::default());
        assert_eq!(report.matched, standard_gles_symbols().len());
        assert_eq!(report.bridged_eagl, EAGL_SYMBOLS.len());
        assert!(report.fence_bug);
    }

    #[test]
    fn ios_app_renders_through_diplomats() {
        let mut sys = CiderSystem::new(DeviceProfile::nexus7());
        install_gfx(&mut sys, GfxConfig::default());
        let tid = foreign_thread(&mut sys);
        let lib = "OpenGLES.framework/OpenGLES";
        // EAGL setup through the bridge.
        let ctx = sys
            .diplomat_call(tid, lib, "EAGLContext_initWithAPI", &[])
            .unwrap();
        sys.diplomat_call(tid, lib, "EAGLContext_setCurrentContext", &[ctx])
            .unwrap();
        sys.diplomat_call(
            tid,
            lib,
            "EAGLContext_renderbufferStorage",
            &[ctx, 1280, 800],
        )
        .unwrap();
        // Standard GL through generated diplomats.
        sys.diplomat_call(tid, lib, "glClear", &[0x4000]).unwrap();
        sys.diplomat_call(tid, lib, "glDrawArrays", &[4, 0, 900])
            .unwrap();
        sys.diplomat_call(tid, lib, "EAGLContext_presentRenderbuffer", &[])
            .unwrap();
        let g = gfx(&sys);
        assert_eq!(g.flinger.frames_presented, 1);
        assert!(g.gpu.gpu_busy_ns > 0);
    }

    #[test]
    fn fence_bug_only_on_diplomatic_path() {
        let mut sys = CiderSystem::new(DeviceProfile::nexus7());
        install_gfx(&mut sys, GfxConfig::default());
        let tid = foreign_thread(&mut sys);
        let lib = "OpenGLES.framework/OpenGLES";
        let ctx = sys
            .diplomat_call(tid, lib, "EAGLContext_initWithAPI", &[])
            .unwrap();
        sys.diplomat_call(tid, lib, "EAGLContext_setCurrentContext", &[ctx])
            .unwrap();
        sys.diplomat_call(
            tid,
            lib,
            "EAGLContext_renderbufferStorage",
            &[ctx, 64, 64],
        )
        .unwrap();
        let fence = sys.diplomat_call(tid, lib, "glFenceSync", &[]).unwrap();
        sys.diplomat_call(tid, lib, "glClientWaitSync", &[fence])
            .unwrap();
        assert_eq!(gfx(&sys).gpu.bug_stalls, 1);
        // The domestic path stays correct.
        assert!(!gfx(&sys).gpu.fence_bug);
    }

    #[test]
    fn iosurface_interposition_reaches_gralloc() {
        let mut sys = CiderSystem::new(DeviceProfile::nexus7());
        install_gfx(&mut sys, GfxConfig::default());
        let tid = foreign_thread(&mut sys);
        let lib = "IOSurface.framework/IOSurface";
        let buf = sys
            .diplomat_call(tid, lib, "IOSurfaceCreate", &[256, 256])
            .unwrap();
        assert_eq!(gfx(&sys).gralloc.live(), 1);
        sys.diplomat_call(tid, lib, "IOSurfaceLock", &[buf])
            .unwrap();
        assert_eq!(
            sys.diplomat_call(tid, lib, "IOSurfaceLock", &[buf]),
            Err(Errno::EBUSY)
        );
        sys.diplomat_call(tid, lib, "IOSurfaceUnlock", &[buf])
            .unwrap();
        sys.diplomat_call(tid, lib, "IOSurfaceDecrementUseCount", &[buf])
            .unwrap();
        assert_eq!(gfx(&sys).gralloc.live(), 0);
    }

    #[test]
    fn gl_calls_without_a_stack_fail_with_enodev() {
        let mut sys = CiderSystem::new(DeviceProfile::nexus7());
        install_gfx(&mut sys, GfxConfig::default());
        let tid = foreign_thread(&mut sys);
        sys.kernel.extensions.take::<GfxStack>().unwrap();
        let lib = "OpenGLES.framework/OpenGLES";
        for (sym, args) in [
            ("EAGLContext_initWithAPI", &[][..]),
            ("glClear", &[0x4000][..]),
            ("glFlush", &[][..]),
        ] {
            assert_eq!(
                sys.diplomat_call(tid, lib, sym, args),
                Err(Errno::ENODEV)
            );
        }
    }
}
