//! The three workloads, generated from the corpus crate. The program
//! under test only ever receives the resulting `FileEntry` vectors.

use std::collections::{HashMap, HashSet};

use msync_core::{CollectionOutcome, FileEntry, ProtocolConfig, ResumePlan};
use msync_corpus::{gcc_like, nightly_recrawl, recrawl_params, release_pair, Collection, Rng};
use msync_hash::file_fingerprint;

/// Which collection a run keeps current.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A source-tree minor release: deep map phase, tiny deltas.
    ReleaseUpgrade,
    /// A nightly web recrawl: wholesale rewrites carried by the delta
    /// codec and the server engine.
    CrawlRefresh,
    /// An unchanged mirror re-polled with a warm resume cache: no map
    /// phase at all, only fingerprints, handshake and mux.
    MirrorPoll,
}

impl Kind {
    /// Every workload, in the order the smoke mode runs them.
    pub const ALL: [Kind; 3] = [Kind::ReleaseUpgrade, Kind::CrawlRefresh, Kind::MirrorPoll];

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::ReleaseUpgrade => "release_upgrade",
            Kind::CrawlRefresh => "crawl_refresh",
            Kind::MirrorPoll => "mirror_poll",
        }
    }

    /// The corpus crate's own seed for the generator this workload uses.
    pub fn corpus_seed(self) -> u64 {
        match self {
            Kind::ReleaseUpgrade => gcc_like(1.0).seed,
            Kind::CrawlRefresh | Kind::MirrorPoll => recrawl_params(1.0).seed,
        }
    }

    /// A corpus seed never used while the benchmark or an optimisation
    /// was tuned; a later claim re-checks itself on it.
    pub fn held_out_seed(self) -> u64 {
        match self {
            Kind::ReleaseUpgrade => 0xD00D_7001,
            Kind::CrawlRefresh => 0xFEED_7002,
            Kind::MirrorPoll => 0xFEED_7003,
        }
    }

    /// Corpus scale of a measured run.
    pub fn scale(self) -> f64 {
        match self {
            Kind::ReleaseUpgrade => 0.1,
            Kind::CrawlRefresh => 0.05,
            Kind::MirrorPoll => 0.1,
        }
    }

    /// Corpus scale of the smoke mode: a handful of files.
    pub fn smoke_scale(self) -> f64 {
        match self {
            Kind::ReleaseUpgrade => 0.01,
            Kind::CrawlRefresh | Kind::MirrorPoll => 0.002,
        }
    }
}

/// One workload's inputs and the answer every sync must reproduce.
pub struct Inputs {
    /// The client's collection before the sync.
    pub old: Vec<FileEntry>,
    /// The collection the daemon serves.
    pub new: Vec<FileEntry>,
    /// The warm-cache resume offer (mirror_poll only).
    pub resume: Option<ResumePlan>,
    /// `new`, sorted by name: the outcome must equal it.
    expected: Vec<FileEntry>,
    /// Old names absent from `new`.
    expected_deleted: usize,
}

fn entries(c: &Collection) -> Vec<FileEntry> {
    c.files().iter().map(|f| FileEntry::new(f.name.clone(), f.data.clone())).collect()
}

/// Fisher-Yates with the corpus crate's PRNG. The program sorts by name,
/// so the order only checks that it does; the wire must not change.
fn shuffle(files: &mut [FileEntry], rng: &mut Rng) {
    for i in (1..files.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        files.swap(i, j);
    }
}

impl Inputs {
    /// Generate `kind` at `scale` from `corpus_seed`, and present both
    /// collections in an order drawn from `order_seed`.
    pub fn build(
        kind: Kind,
        corpus_seed: u64,
        scale: f64,
        order_seed: u64,
        cfg: &ProtocolConfig,
    ) -> Inputs {
        let (mut old, mut new) = match kind {
            Kind::ReleaseUpgrade => {
                let mut p = gcc_like(scale);
                p.seed = corpus_seed;
                let pair = release_pair(&p);
                let (a, b) = pair.pair(0, 1);
                (entries(a), entries(b))
            }
            Kind::CrawlRefresh => {
                let mut p = recrawl_params(scale);
                p.seed = corpus_seed;
                let crawl = nightly_recrawl(&p, 1);
                let (a, b) = crawl.pair(0, 1);
                (entries(a), entries(b))
            }
            Kind::MirrorPoll => {
                let mut p = recrawl_params(scale);
                p.seed = corpus_seed;
                let night1 = entries(&nightly_recrawl(&p, 1).versions[1]);
                (night1.clone(), night1)
            }
        };
        let resume = (kind == Kind::MirrorPoll).then(|| {
            let mut plan = ResumePlan::new(cfg);
            for f in &old {
                plan.add(f.name.clone(), file_fingerprint(&f.data));
            }
            plan
        });
        let mut rng = Rng::seed_from_u64(order_seed);
        shuffle(&mut old, &mut rng);
        shuffle(&mut new, &mut rng);
        let mut expected = new.clone();
        expected.sort_by(|a, b| a.name.cmp(&b.name));
        let served: HashSet<&str> = new.iter().map(|f| f.name.as_str()).collect();
        let expected_deleted = old.iter().filter(|f| !served.contains(f.name.as_str())).count();
        Inputs { old, new, resume, expected, expected_deleted }
    }

    /// Bytes of the served collection.
    pub fn served_bytes(&self) -> u64 {
        self.new.iter().map(|f| f.data.len() as u64).sum()
    }

    /// (old, new) contents of every file present on both sides with
    /// different bytes: the files whose map phase and delta run.
    pub fn changed_pairs(&self) -> Vec<(&[u8], &[u8])> {
        let old: HashMap<&str, &[u8]> =
            self.old.iter().map(|f| (f.name.as_str(), f.data.as_slice())).collect();
        let mut pairs: Vec<(&str, &[u8], &[u8])> = self
            .new
            .iter()
            .filter_map(|f| {
                let before = old.get(f.name.as_str())?;
                (*before != f.data.as_slice()).then_some((f.name.as_str(), *before, &f.data[..]))
            })
            .collect();
        pairs.sort_by_key(|p| p.0);
        pairs.into_iter().map(|(_, a, b)| (a, b)).collect()
    }

    /// Check a finished sync: the client must hold exactly the served
    /// collection, must have deleted exactly the names the server
    /// dropped, and on a resume poll must have resumed every file.
    pub fn check(&self, got: &CollectionOutcome) -> Result<(), String> {
        if got.files.len() != self.expected.len() {
            return Err(format!("{} files, served {}", got.files.len(), self.expected.len()));
        }
        for (g, e) in got.files.iter().zip(&self.expected) {
            if g.name != e.name {
                return Err(format!("file {} where {} was served", g.name, e.name));
            }
            if g.data != e.data {
                return Err(format!("{}: reconstruction differs from the served bytes", g.name));
            }
        }
        if got.deleted != self.expected_deleted {
            return Err(format!("{} deletions, expected {}", got.deleted, self.expected_deleted));
        }
        if self.resume.is_some() && got.resumed != self.expected.len() {
            return Err(format!("resumed {} of {} files", got.resumed, self.expected.len()));
        }
        Ok(())
    }
}
