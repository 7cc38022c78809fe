//! Spans recorded by the benchmark around its own calls into the library,
//! plus the process and host probes the benchmark reads: CPU time from
//! `/proc/self/stat`, peak resident memory from `/proc/self/status`, time
//! stolen by the hypervisor from `/proc/stat`, and the host tag.
//!
//! Spans are kept in memory and written out once, when the run ends, as a
//! JSON array of flat objects (string and number fields only), the record
//! format `pfg_bench::records::parse_flat_array` reads.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// `/proc/<pid>/stat` reports CPU time in clock ticks of `USER_HZ`, which
/// the Linux ABI fixes at 100 on every architecture.
const USER_HZ: f64 = 100.0;

/// User plus system CPU time of the whole process (all threads, live and
/// exited), in seconds. Resolution is one tick (10 ms).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Field 2 (comm) may hold spaces and parentheses; fields after the
    // last ')' are space-separated, starting at field 3 (state).
    let rest = &stat[stat.rfind(')').expect("stat has a comm field") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15, i.e. offsets 11 and 12 here.
    let ticks = |i: usize| -> f64 { fields[i].parse::<u64>().expect("numeric tick count") as f64 };
    (ticks(11) + ticks(12)) / USER_HZ
}

/// Host-wide CPU tick counters from `/proc/stat`, summed over all CPUs.
#[derive(Debug, Clone, Copy)]
pub struct HostTicks {
    /// Time the hypervisor ran other guests while this one's CPUs wanted
    /// to run.
    stolen: u64,
    /// Everything but idle and iowait; includes `stolen`.
    busy: u64,
}

impl HostTicks {
    pub fn now() -> Self {
        let stat = std::fs::read_to_string("/proc/stat").expect("read /proc/stat");
        let cpu = stat.lines().next().expect("aggregate cpu line");
        // user nice system idle iowait irq softirq steal [guest guest_nice],
        // guest time being already inside user.
        let ticks: Vec<u64> = cpu
            .split_whitespace()
            .skip(1)
            .take(8)
            .map(|t| t.parse().expect("numeric tick count"))
            .collect();
        let stolen = ticks.get(7).copied().unwrap_or(0);
        Self {
            stolen,
            busy: ticks.iter().sum::<u64>() - ticks[3] - ticks[4],
        }
    }

    /// Share of the busy CPU time since `earlier` that the hypervisor
    /// gave to other guests (0 when nothing was busy).
    pub fn stolen_since(&self, earlier: &HostTicks) -> f64 {
        let busy = self.busy.saturating_sub(earlier.busy);
        if busy == 0 {
            0.0
        } else {
            self.stolen.saturating_sub(earlier.stolen) as f64 / busy as f64
        }
    }
}

/// Resets the peak resident set size (`VmHWM`) to the current one, so
/// that the next [`peak_rss_bytes`] covers only what runs in between.
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Peak resident set size of the process (`VmHWM`), in bytes, since it
/// started or since the last [`reset_peak_rss`].
pub fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .expect("VmHWM in /proc/self/status")
        * 1024
}

/// The host the numbers were measured on: worker count, last-level cache
/// and memory.
pub fn host_tag(threads: usize) -> String {
    let llc = (0..8)
        .rev()
        .find_map(|i| {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            let size = std::fs::read_to_string(format!("{dir}/size")).ok()?;
            let level = std::fs::read_to_string(format!("{dir}/level")).ok()?;
            Some(format!("L{}={}", level.trim(), size.trim()))
        })
        .unwrap_or_else(|| "unknown".into());
    let ram = std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|m| {
            m.lines()
                .find_map(|l| l.strip_prefix("MemTotal:"))
                .map(|v| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!("nproc={threads} llc={llc} ram={ram}")
}

/// One recorded span. Times are seconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    /// Pipeline repetition the span belongs to.
    pub run: usize,
    /// Worker count of the pool the repetition ran in.
    pub threads: usize,
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
    /// Process CPU time (all threads) spent while the span was open.
    pub cpu_s: f64,
}

impl Span {
    pub fn wall_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// In-memory span recorder. Spans nest: a span opened while another is
/// open becomes its child.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<(usize, f64)>,
    run: usize,
    threads: usize,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
            threads: 0,
        }
    }
}

impl Tracer {
    /// Starts repetition `run` in a pool of `threads` workers; spans opened
    /// from now on carry both.
    pub fn set_run(&mut self, run: usize, threads: usize) {
        self.run = run;
        self.threads = threads;
    }

    /// Opens a span and returns its id.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let cpu = process_cpu_s();
        self.spans.push(Span {
            id,
            parent: self.open.last().map(|&(p, _)| p),
            run: self.run,
            threads: self.threads,
            name,
            start_s: self.epoch.elapsed().as_secs_f64(),
            end_s: f64::NAN,
            cpu_s: 0.0,
        });
        self.open.push((id, cpu));
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: usize) {
        let end_s = self.epoch.elapsed().as_secs_f64();
        let (top, cpu_start) = self.open.pop().expect("a span is open");
        assert_eq!(top, id, "spans close innermost first");
        let span = &mut self.spans[id];
        span.end_s = end_s;
        span.cpu_s = process_cpu_s() - cpu_start;
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as a JSON array of flat objects, one per line,
    /// after a leading `host` record.
    pub fn write_json(&self, path: &Path, host: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        write!(out, "{{\"name\":\"host\",\"host\":\"{host}\"}}")?;
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                ",\n{{\"id\":{},\"parent\":{parent},\"run\":{},\"threads\":{},\"name\":\"{}\",\
                 \"start_s\":{},\"end_s\":{},\"cpu_s\":{}}}",
                s.id, s.run, s.threads, s.name, s.start_s, s.end_s, s.cpu_s
            )?;
        }
        writeln!(out, "\n]")?;
        out.flush()
    }
}
