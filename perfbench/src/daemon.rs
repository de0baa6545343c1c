//! A `tnm serve` daemon owned by the benchmark: spawned on a free
//! localhost port, and shut down and reaped before the run ends.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use tnm_motifs::engine::ServeClient;

pub struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    /// Starts `tnm serve --port 0` and waits for its listening line.
    pub fn start(tnm: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(tnm)
            .args(["serve", "--host", "127.0.0.1", "--port", "0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {} serve: {e}", tnm.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = match (read, line.trim().rsplit_once("listening on ")) {
            (Ok(_), Some((_, addr))) => addr.to_string(),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("tnm serve did not report its address (got {line:?})"));
            }
        };
        Ok(Daemon { child, addr })
    }

    pub fn client(&self) -> Result<ServeClient, String> {
        ServeClient::connect_retry(self.addr.as_str(), 40, Duration::from_millis(50))
            .map_err(|e| format!("cannot connect to {}: {e}", self.addr))
    }

    /// High-water RSS of the daemon process so far, in MB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        crate::host::peak_rss_mb(self.child.id())
    }

    /// Asks the daemon to shut down through `client` and reaps it; kills
    /// it if it has not exited within ten seconds.
    pub fn stop(mut self, mut client: ServeClient) -> Result<(), String> {
        let asked = client.shutdown().map_err(|e| e.to_string());
        drop(client);
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return asked,
                Ok(Some(status)) => return Err(format!("tnm serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("tnm serve did not exit after shutdown; killed".into());
                }
            }
        }
    }
}

impl Drop for Daemon {
    /// A daemon dropped on an error path is killed and reaped, so no run
    /// leaves a process behind.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
