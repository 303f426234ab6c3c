//! Where command output goes.

use std::fmt;
use std::io::{ErrorKind, Write};

/// The one writer every command prints through. A reader that closed
/// the pipe (`mloc stats ... | head -3`) ends the output, not the
/// command: later writes are dropped, and the command finishes with its
/// own exit status and nothing on stderr. Any other write failure is an
/// error.
pub struct Output<'w> {
    sink: &'w mut dyn Write,
    closed: bool,
}

impl<'w> Output<'w> {
    pub fn new(sink: &'w mut dyn Write) -> Self {
        Output {
            sink,
            closed: false,
        }
    }

    /// Write `text`, unless the reader has gone.
    pub fn write(&mut self, text: fmt::Arguments<'_>) -> Result<(), String> {
        if self.closed {
            return Ok(());
        }
        match self.sink.write_fmt(text) {
            Err(e) if e.kind() == ErrorKind::BrokenPipe => {
                self.closed = true;
                Ok(())
            }
            Err(e) => Err(format!("cannot write output: {e}")),
            Ok(()) => Ok(()),
        }
    }
}

/// `println!` to an [`Output`]; a write error returns it from the
/// enclosing function.
macro_rules! outln {
    ($out:expr, $($arg:tt)*) => {
        $out.write(format_args!("{}\n", format_args!($($arg)*)))?
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sink whose reader has gone after `left` bytes.
    struct Pipe {
        got: Vec<u8>,
        left: usize,
        kind: ErrorKind,
    }

    impl Write for Pipe {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if buf.len() > self.left {
                return Err(self.kind.into());
            }
            self.left -= buf.len();
            self.got.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn three_lines(out: &mut Output<'_>) -> Result<(), String> {
        for k in 0..3 {
            outln!(out, "line {k}");
        }
        Ok(())
    }

    #[test]
    fn a_closed_pipe_ends_the_output_and_nothing_else() {
        let mut pipe = Pipe {
            got: Vec::new(),
            left: 10,
            kind: ErrorKind::BrokenPipe,
        };
        assert_eq!(three_lines(&mut Output::new(&mut pipe)), Ok(()));
        assert_eq!(pipe.got, b"line 0\n");
        // Any other failure is the command's error.
        pipe.kind = ErrorKind::StorageFull;
        let err = three_lines(&mut Output::new(&mut pipe)).unwrap_err();
        assert!(err.starts_with("cannot write output"), "{err}");
    }
}
