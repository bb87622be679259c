//! The one accept loop, shared by the server and the chaos proxy: a thread
//! blocked in `accept`, woken on stop by a loopback self-connect.

use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

pub(crate) struct Acceptor {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<()>,
}

impl Acceptor {
    /// Spawns the accept thread; `on_conn` runs on it for every accepted
    /// connection, in accept order.
    pub(crate) fn spawn(
        listener: TcpListener,
        thread_name: &str,
        mut on_conn: impl FnMut(TcpStream) + Send + 'static,
    ) -> std::io::Result<Acceptor> {
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name(thread_name.into())
            .spawn(move || loop {
                let conn = listener.accept();
                if flag.load(Ordering::SeqCst) {
                    return; // dropping the waking stream
                }
                match conn {
                    Ok((stream, _)) => on_conn(stream),
                    // EMFILE/ENFILE: back off rather than spin a core.
                    Err(_) => std::thread::sleep(Duration::from_millis(5)),
                }
            })?;
        Ok(Acceptor { addr, stop, thread })
    }

    /// The bound address (resolves port 0).
    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Raises the flag, then wakes the blocked `accept` with one loopback
    /// connection (`0.0.0.0:P` is reached through `127.0.0.1:P`).
    pub(crate) fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect_timeout(&wake, Duration::from_millis(500));
    }

    /// Waits for the accept thread to exit. Call [`Acceptor::stop`] first.
    pub(crate) fn join(self) {
        let _ = self.thread.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn stop_wakes_an_unspecified_listener_without_a_callback() {
        let listener = TcpListener::bind("0.0.0.0:0").unwrap();
        let seen = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&seen);
        let acceptor = Acceptor::spawn(listener, "test-accept", move |_| {
            counter.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
        let port = acceptor.addr().port();
        drop(TcpStream::connect((Ipv4Addr::LOCALHOST, port)).unwrap());
        while seen.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        acceptor.stop();
        acceptor.join();
        assert_eq!(seen.load(Ordering::SeqCst), 1, "the wake-up was handed on");
    }
}
