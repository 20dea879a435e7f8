//! The system under test: the release `scaguard` binary, built from the
//! checkout, run as a `scaguard serve` child process on loopback.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use crate::procfs;
use crate::wire::Conn;

/// The cargo target directory this benchmark binary was built into
/// (`<target>/release/scabench`): the server binary is built next to it.
fn target_dir() -> Result<PathBuf, String> {
    let exe =
        std::env::current_exe().map_err(|e| format!("cannot locate the bench binary: {e}"))?;
    exe.parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .ok_or_else(|| format!("unexpected bench binary location {}", exe.display()))
}

/// Build the release `scaguard` binary from the checkout in the current
/// directory (a no-op when it is up to date) and return its path.
pub fn build_scaguard() -> Result<PathBuf, String> {
    let target = target_dir()?;
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "scaguard",
        ])
        .arg("--target-dir")
        .arg(&target)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building scaguard failed ({status})"));
    }
    let bin = target.join("release").join("scaguard");
    if !bin.is_file() {
        return Err(format!("{} missing after the build", bin.display()));
    }
    Ok(bin)
}

/// Run `scaguard <args>` to completion (repository builds).
pub fn run_cli(bin: &Path, args: &[&str]) -> Result<(), String> {
    let out = Command::new(bin)
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .output()
        .map_err(|e| format!("cannot run scaguard: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "scaguard {} failed: {}",
            args.join(" "),
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(())
}

/// A running `scaguard serve` child. Dropping it kills and reaps the
/// process, so no server outlives the benchmark.
pub struct ServerProc {
    child: Child,
    _stdout: Option<BufReader<ChildStdout>>,
    /// The loopback address it listens on.
    pub addr: String,
}

impl ServerProc {
    /// Spawn `scaguard serve <repo> <flags>` and wait until it answers a
    /// `ping`. Returns the server and its set-up time: spawn to the
    /// first successful `ping` reply (repository and index load,
    /// detector preparation, bind, first round trip).
    pub fn spawn(bin: &Path, repo: &Path, flags: &[String]) -> Result<(ServerProc, f64), String> {
        let start = Instant::now();
        let child = Command::new(bin)
            .arg("serve")
            .arg(repo)
            .args(["--addr", "127.0.0.1:0"])
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn scaguard serve: {e}"))?;
        // Built before the banner is read, so a server that fails to come
        // up is still killed and reaped on the error path.
        let mut server = ServerProc {
            _stdout: None,
            child,
            addr: String::new(),
        };
        let mut stdout = BufReader::new(server.child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        stdout
            .read_line(&mut line)
            .map_err(|e| format!("reading the server banner: {e}"))?;
        server.addr = line
            .trim()
            .strip_prefix("listening on ")
            .ok_or_else(|| format!("unexpected server banner {line:?}"))?
            .to_string();
        server._stdout = Some(stdout);
        let mut conn = Conn::connect(&server.addr).map_err(|e| format!("connect: {e}"))?;
        let (reply, _) = conn
            .call(r#"{"cmd":"ping"}"#)
            .map_err(|e| format!("first ping: {e}"))?;
        if !reply.starts_with(r#"{"ok":true"#) {
            return Err(format!("first ping refused: {reply}"));
        }
        Ok((server, start.elapsed().as_secs_f64()))
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Server-process CPU time so far, in milliseconds.
    pub fn cpu_ms(&self) -> Result<f64, String> {
        procfs::cpu_ms(Some(self.pid())).ok_or_else(|| "cannot read server CPU time".into())
    }

    /// Server peak resident set size so far, in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        procfs::peak_rss_mb(self.pid()).ok_or_else(|| "cannot read server VmHWM".into())
    }

    /// Ask the server to shut down and wait for it to exit (killing it
    /// after ten seconds).
    pub fn stop(mut self) -> Result<(), String> {
        let acked = Conn::connect(&self.addr)
            .and_then(|mut c| c.call(r#"{"cmd":"shutdown"}"#))
            .is_ok();
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                return if acked && status.success() {
                    Ok(())
                } else {
                    Err(format!("server exited uncleanly ({status})"))
                };
            }
            thread::sleep(Duration::from_millis(5));
        }
        Err("server did not exit within 10 s of shutdown".into())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}
