//! The benchmark's own statistics: nearest-rank percentiles with the
//! "ten samples beyond" reporting rule, quartile spread, the digest of
//! released values, and the matching of server trace events to the
//! client requests of one connection.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending): the value at rank
/// `ceil(q·n)`, clamped to `1..=n`. `None` for an empty sample.
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    Some(sorted[rank(n, q) - 1])
}

/// The 1-based nearest rank of percentile `q` in `n` samples.
pub fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Whether percentile `q` of `n` samples has at least [`MIN_BEYOND`]
/// samples above its rank.
pub fn reportable(n: usize, q: f64) -> bool {
    n > 0 && n - rank(n, q) >= MIN_BEYOND
}

/// Sorts a sample ascending (total order, so NaN cannot scramble it).
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

/// The median as Python's `statistics.median` gives it (mean of the
/// two middle values for an even count).
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs.to_vec());
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// The three cut points of `statistics.quantiles(xs, n=4)` (the
/// default "exclusive" method). Needs at least two values.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(xs.to_vec());
    let n = s.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    Some(out)
}

/// Quartile spread as a share of the median: `(q3 − q1) / median`.
pub fn spread(xs: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(xs)?;
    let med = median(xs)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// FNV-1a over the bit patterns of released values, in the order fed.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one value's bits into the digest.
    pub fn add(&mut self, x: f64) {
        for byte in x.to_bits().to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// A request as the client saw it.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientRequest {
    /// Route, e.g. `/v1/query`.
    pub path: &'static str,
    /// Dataset the request named.
    pub dataset: String,
    /// Send-to-response time in microseconds.
    pub latency_us: f64,
}

/// A `/v1/trace` event, reduced to what the benchmark uses.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerEvent {
    /// Process-wide request id (assigned at completion).
    pub id: u64,
    /// Reactor shard that served the request.
    pub shard: usize,
    /// Request path.
    pub path: String,
    /// Dataset label, if any.
    pub dataset: Option<String>,
    /// Response status.
    pub status: u16,
    /// Parse time in microseconds.
    pub parse_us: f64,
    /// Handler time in microseconds.
    pub handle_us: f64,
    /// Response body bytes.
    pub bytes_out: f64,
}

/// Whether a path is one of the scrapes the benchmark interleaves
/// (these are never matched to timed requests).
pub fn is_scrape(path: &str) -> bool {
    path.starts_with("/v1/trace") || path.starts_with("/v1/metrics")
}

/// Matches the timed requests of the one connection served by `shard`
/// to that shard's trace events with ids above `after`, in order.
///
/// A shard serves requests of one connection sequentially and ids are
/// assigned at completion, so the k-th non-scrape event of the shard
/// is the connection's k-th request. Returns, per request, the index
/// of its event in `events`; an error when the counts, paths or
/// datasets disagree.
pub fn match_connection(
    requests: &[ClientRequest],
    events: &[ServerEvent],
    shard: usize,
    after: u64,
) -> Result<Vec<usize>, String> {
    let mut own: Vec<usize> = (0..events.len())
        .filter(|&i| {
            let e = &events[i];
            e.shard == shard && e.id > after && !is_scrape(&e.path)
        })
        .collect();
    own.sort_by_key(|&i| events[i].id);
    own.dedup_by_key(|i| events[*i].id);
    if own.len() != requests.len() {
        return Err(format!(
            "shard {shard}: {} trace events for {} requests",
            own.len(),
            requests.len()
        ));
    }
    for (k, (request, &i)) in requests.iter().zip(&own).enumerate() {
        let e = &events[i];
        if e.path != request.path || e.dataset.as_deref() != Some(request.dataset.as_str()) {
            return Err(format!(
                "shard {shard}: request {k} ({} {}) matched event {} ({} {:?})",
                request.path, request.dataset, e.id, e.path, e.dataset
            ));
        }
    }
    Ok(own)
}

/// Checks that the distinct ids cover `first..=max` without a gap;
/// returns the first missing id otherwise.
pub fn contiguous_from(ids: &[u64], first: u64) -> Result<(), u64> {
    let mut s: Vec<u64> = ids.iter().copied().filter(|&id| id >= first).collect();
    s.sort_unstable();
    s.dedup();
    match (first..).zip(s).find(|(expect, id)| id != expect) {
        Some((missing, _)) => Err(missing),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_matches_the_definition() {
        let s = ramp(10);
        assert_eq!(nearest_rank(&s, 0.5), Some(5.0));
        assert_eq!(nearest_rank(&s, 0.51), Some(6.0));
        assert_eq!(nearest_rank(&s, 0.99), Some(10.0));
        assert_eq!(nearest_rank(&s, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
        assert_eq!(nearest_rank(&ramp(1000), 0.99), Some(990.0));
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // rank(1000, .99) = 990: exactly 10 beyond.
        assert!(reportable(1000, 0.99));
        // rank(999, .99) = 990: 9 beyond.
        assert!(!reportable(999, 0.99));
        assert!(reportable(20, 0.5));
        assert!(!reportable(19, 0.5));
        assert!(!reportable(0, 0.5));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2, 10], n=4) == [1.25, 2.5, 8.25]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 10.0]), Some([1.25, 2.5, 8.25]));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[5.0, 7.0]), Some([4.5, 6.0, 7.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_quartile_distance_over_median() {
        // (8.25 - 2.75) / 5.5 == 1.0
        assert_eq!(spread(&ramp(10)), Some(1.0));
        assert_eq!(spread(&[4.0; 10]), Some(0.0));
        assert_eq!(median(&[1.0, 4.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn digest_depends_on_order_and_bits() {
        let mut a = Digest::default();
        a.add(1.0);
        a.add(2.0);
        let mut b = Digest::default();
        b.add(2.0);
        b.add(1.0);
        assert_ne!(a.hex(), b.hex());
        let mut c = Digest::default();
        c.add(0.0);
        let mut d = Digest::default();
        d.add(-0.0);
        assert_ne!(c.hex(), d.hex());
    }

    fn event(id: u64, shard: usize, path: &str, dataset: &str) -> ServerEvent {
        ServerEvent {
            id,
            shard,
            path: path.into(),
            dataset: Some(dataset.into()),
            status: 200,
            parse_us: 1.0,
            handle_us: 2.0,
            bytes_out: 3.0,
        }
    }

    fn request(dataset: &str) -> ClientRequest {
        ClientRequest {
            path: "/v1/query",
            dataset: dataset.into(),
            latency_us: 10.0,
        }
    }

    #[test]
    fn matching_pairs_a_connection_with_its_shard_in_id_order() {
        let events = vec![
            event(7, 1, "/v1/query", "b"),
            event(5, 0, "/v1/query", "x"),
            event(9, 0, "/v1/query", "a2"),
            event(6, 0, "/v1/query", "a1"),
            event(8, 0, "/v1/trace", "-"),
            // Duplicate from an overlapping scrape.
            event(9, 0, "/v1/query", "a2"),
        ];
        let requests = vec![request("a1"), request("a2")];
        let matched = match_connection(&requests, &events, 0, 5).unwrap();
        assert_eq!(matched, vec![3, 2]);
        let other = match_connection(&[request("b")], &events, 1, 5).unwrap();
        assert_eq!(other, vec![0]);
    }

    #[test]
    fn matching_rejects_missing_or_misaligned_events() {
        let events = vec![event(1, 0, "/v1/query", "a"), event(2, 0, "/v1/query", "b")];
        // An event lost (ring wrapped): counts disagree.
        assert!(
            match_connection(&[request("a"), request("b"), request("c")], &events, 0, 0).is_err()
        );
        // Order swapped: the datasets disagree.
        assert!(match_connection(&[request("b"), request("a")], &events, 0, 0).is_err());
    }

    #[test]
    fn contiguity_finds_the_first_gap() {
        assert_eq!(contiguous_from(&[3, 4, 4, 5, 6], 3), Ok(()));
        assert_eq!(contiguous_from(&[3, 5, 6], 3), Err(4));
        assert_eq!(contiguous_from(&[4, 5], 3), Err(3));
        assert_eq!(contiguous_from(&[1, 2, 3, 4], 3), Ok(()));
    }
}
