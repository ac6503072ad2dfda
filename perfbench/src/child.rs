//! Child processes: the benchmark re-executes its own binary to run the
//! measured program apart from the client, so the program's peak RSS is
//! not mixed with the client's references and records.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A child speaking a line protocol on its standard input and output.
/// Closing its input tells it to stop.
pub struct ChildProc {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl ChildProc {
    /// Start this binary with `args`.
    pub fn spawn(args: &[&str]) -> Result<ChildProc, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {args:?}: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().map(BufReader::new);
        match stdout {
            Some(stdout) => Ok(ChildProc {
                child,
                stdin,
                stdout,
            }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err("child has no stdout".into())
            }
        }
    }

    /// Read one line (without its newline); EOF is an error.
    pub fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(0) => Err("child process closed its output".into()),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(format!("reading from child: {e}")),
        }
    }

    /// Send one line.
    pub fn send_line(&mut self, line: &str) -> Result<(), String> {
        let stdin = self.stdin.as_mut().ok_or("child input already closed")?;
        writeln!(stdin, "{line}")
            .and_then(|_| stdin.flush())
            .map_err(|e| format!("writing to child: {e}"))
    }

    /// Peak RSS of the child so far, in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        crate::peak_rss_mb(Some(self.child.id()))
    }

    /// Close the child's input and wait for it to exit (killing it
    /// after a minute).
    pub fn stop(mut self) -> Result<(), String> {
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(status) if status.success() => return Ok(()),
                Some(status) => return Err(format!("child process exited with {status}")),
                None if Instant::now() > deadline => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("child process did not stop; killed".into());
                }
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }
}

impl Drop for ChildProc {
    fn drop(&mut self) {
        // A child `stop` did not see exit: never leave it behind.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
