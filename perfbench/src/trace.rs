//! In-memory span recorder for the traced runs.
//!
//! Spans are recorded around calls into the program from this
//! package only; nothing inside the program is instrumented. Each span
//! has a name, start, end, the span that caused it (its parent on the
//! stack) and a trace id shared by every span of one operation. Per
//! name the recorder keeps a count, the total time and the self time
//! (duration minus the time covered by child spans). The first
//! [`KEEP`] spans are kept whole and written out when the run ends.

use std::io::Write;
use std::path::PathBuf;
use std::time::Instant;

/// Spans kept whole for the dump (the aggregates cover all of them).
const KEEP: usize = 200_000;

#[derive(Clone, Copy, Default)]
pub struct SpanStat {
    pub count: u64,
    pub total_ns: f64,
    pub self_ns: f64,
}

impl SpanStat {
    /// Mean duration per span, children included.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns / self.count as f64
        }
    }

    /// Mean self time per span.
    pub fn mean_self_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns / self.count as f64
        }
    }
}

struct Open {
    id: u64,
    start: Instant,
    child_ns: f64,
}

struct Record {
    id: u64,
    parent: u64,
    trace_id: u64,
    name: usize,
    start_ns: u64,
    end_ns: u64,
}

/// Something a staged replay can open spans on: the [`Tracer`], or
/// [`NoSpans`] for the same replay with tracing off (the difference
/// between the two is the tracing overhead).
pub trait Spans {
    /// Run `f` inside a span whose name is chosen from its result (a
    /// flow lookup is a hit or a creation only once it returns).
    fn span_named<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> T,
        name_of: impl FnOnce(&T) -> usize,
    ) -> T;

    /// Run `f` inside a span named `names[name]`.
    fn span<T>(&mut self, name: usize, f: impl FnOnce(&mut Self) -> T) -> T {
        self.span_named(f, |_| name)
    }
}

/// Tracing off: every span is just the call.
pub struct NoSpans;

impl Spans for NoSpans {
    fn span_named<T>(&mut self, f: impl FnOnce(&mut Self) -> T, _: impl FnOnce(&T) -> usize) -> T {
        f(self)
    }
}

/// The recorder. Span names are indices into the `names` table given
/// at construction.
pub struct Tracer {
    names: &'static [&'static str],
    stats: Vec<SpanStat>,
    stack: Vec<Open>,
    kept: Vec<Record>,
    next_id: u64,
    epoch: Instant,
    /// Operation the next spans belong to (a frame, a trial, a round).
    pub trace_id: u64,
}

impl Tracer {
    pub fn new(names: &'static [&'static str]) -> Tracer {
        Tracer {
            names,
            stats: vec![SpanStat::default(); names.len()],
            stack: Vec::new(),
            kept: Vec::with_capacity(KEEP),
            next_id: 1,
            epoch: Instant::now(),
            trace_id: 0,
        }
    }

    pub fn stat(&self, name: usize) -> SpanStat {
        self.stats[name]
    }

    /// Sum of self times over every span: the time the spans cover.
    pub fn covered_ns(&self) -> f64 {
        self.stats.iter().map(|s| s.self_ns).sum()
    }

    /// Write the kept spans as tab-separated rows under the build
    /// directory (`$CARGO_TARGET_DIR`, else `target`), so the dump
    /// stays out of the source tree. Returns the file written.
    pub fn write(&self, label: &str) -> std::io::Result<PathBuf> {
        let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
        let dir = PathBuf::from(dir).join("perfbench-trace");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{label}.tsv"));
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        writeln!(out, "id\tparent\ttrace_id\tname\tstart_ns\tend_ns")?;
        for r in &self.kept {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                r.id, r.parent, r.trace_id, self.names[r.name], r.start_ns, r.end_ns
            )?;
        }
        out.flush()?;
        Ok(path)
    }
}

impl Spans for Tracer {
    fn span_named<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> T,
        name_of: impl FnOnce(&T) -> usize,
    ) -> T {
        let id = self.next_id;
        self.next_id += 1;
        let start = Instant::now();
        self.stack.push(Open {
            id,
            start,
            child_ns: 0.0,
        });
        let out = f(self);
        let end = Instant::now();
        let open = self.stack.pop().expect("span stack balanced");
        let dur = end.duration_since(open.start).as_nanos() as f64;
        let parent = match self.stack.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                p.id
            }
            None => 0,
        };
        let name = name_of(&out);
        let stat = &mut self.stats[name];
        stat.count += 1;
        stat.total_ns += dur;
        stat.self_ns += dur - open.child_ns;
        if self.kept.len() < KEEP {
            self.kept.push(Record {
                id: open.id,
                parent,
                trace_id: self.trace_id,
                name,
                start_ns: open.start.duration_since(self.epoch).as_nanos() as u64,
                end_ns: end.duration_since(self.epoch).as_nanos() as u64,
            });
        }
        out
    }
}
