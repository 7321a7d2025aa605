//! Child processes started from a small helper process.
//!
//! Linux starts a spawned child's `ru_maxrss` at the spawning address
//! space's peak resident set, so a `hirc` started from the benchmark after
//! set-up would report the benchmark's peak, not its own. The helper is a
//! copy of this binary (`--spawner`), started before set-up while this
//! process is still small; it runs each requested command, times it, and
//! reports the peak resident set of its children
//! (`getrusage(RUSAGE_CHILDREN)`), which are only the commands it ran.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitCode, Stdio};
use std::time::Instant;

pub struct Spawner {
    child: Child,
    to: Option<ChildStdin>,
    from: BufReader<ChildStdout>,
}

impl Spawner {
    pub fn start() -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .arg("--spawner")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start the spawner: {e}"))?;
        let to = child.stdin.take();
        let from = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(Spawner { child, to, from })
    }

    fn request(&mut self, line: &str) -> Result<String, String> {
        let to = self.to.as_mut().expect("open until drop");
        writeln!(to, "{line}")
            .and_then(|()| to.flush())
            .map_err(|e| format!("spawner: {e}"))?;
        let mut reply = String::new();
        self.from
            .read_line(&mut reply)
            .map_err(|e| format!("spawner: {e}"))?;
        if reply.is_empty() {
            return Err("spawner exited".into());
        }
        Ok(reply.trim_end().to_string())
    }

    /// Run `argv` to completion with stdin and stdout closed; returns its
    /// wall time in seconds, spawn to exit, and whether it exited 0.
    pub fn run(&mut self, argv: &[&str]) -> Result<(f64, bool), String> {
        if argv.iter().any(|a| a.contains(['\t', '\n'])) {
            return Err(format!("argument with a tab or newline: {argv:?}"));
        }
        let reply = self.request(&format!("run\t{}", argv.join("\t")))?;
        match reply.split_once(' ') {
            Some((secs, ok)) => Ok((
                secs.parse()
                    .map_err(|e| format!("spawner reply '{reply}': {e}"))?,
                ok == "1",
            )),
            None => Err(format!("spawner: {reply}")),
        }
    }

    /// Peak resident set of the largest command run so far, in MB.
    pub fn children_peak_mb(&mut self) -> Result<f64, String> {
        let reply = self.request("peak")?;
        reply
            .parse()
            .map_err(|e| format!("spawner reply '{reply}': {e}"))
    }
}

impl Drop for Spawner {
    fn drop(&mut self) {
        // End of input stops the helper; wait so no process outlives us.
        drop(self.to.take());
        let _ = self.child.wait();
    }
}

/// The helper's side: serve requests from stdin until it closes.
pub fn serve() -> ExitCode {
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for line in std::io::stdin().lock().lines() {
        let Ok(line) = line else {
            return ExitCode::FAILURE;
        };
        let reply = if line == "peak" {
            match crate::rss::children_peak_mb() {
                Ok(mb) => format!("{mb}"),
                Err(e) => e,
            }
        } else if let Some(cmd) = line.strip_prefix("run\t") {
            let mut argv = cmd.split('\t');
            let prog = argv.next().unwrap_or_default();
            let t0 = Instant::now();
            match Command::new(prog)
                .args(argv)
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .status()
            {
                Ok(s) => format!("{} {}", t0.elapsed().as_secs_f64(), u8::from(s.success())),
                Err(e) => format!("{prog}: {e}"),
            }
        } else {
            format!("unknown request '{line}'")
        };
        if writeln!(out, "{reply}").and_then(|()| out.flush()).is_err() {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
