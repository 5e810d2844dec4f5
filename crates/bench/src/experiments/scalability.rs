//! A3 — ablation: the scalability argument of §2 under load.
//!
//! "The basic distribution of the HNS occurs naturally since each new
//! system type introducing a new set of names also includes a name service
//! managing those names that we can take advantage of directly." A
//! reregistration-based global service concentrates every lookup on one
//! server; direct access spreads lookups across the subsystems' own
//! servers. This ablation sweeps the offered load and compares mean
//! response times.

use simnet::rng::DetRng;
use simnet::time::{SimDuration, SimTime};

use crate::cells::PlainTable;

/// Mean lookup service time of a name server, ms (the BIND primitive's
/// server-side component plus marshalling).
const SERVICE_MS: f64 = 10.0;
/// Number of federated subsystem name services.
const FEDERATION: usize = 4;
/// Jobs per sweep point.
const JOBS: u64 = 40_000;

/// One sweep point.
#[derive(Debug, Clone, Copy)]
pub struct LoadPoint {
    /// Offered load, lookups per second.
    pub rate_per_s: f64,
    /// Mean response of the single central server, ms (`None` if the
    /// server is saturated at this rate).
    pub central_ms: Option<f64>,
    /// Mean response with lookups spread over the federation, ms.
    pub federated_ms: Option<f64>,
}

/// Mean response time (queueing + service, ms) of `jobs` Poisson arrivals
/// at `rate_per_ms` into `servers` FIFO servers with exponential service
/// (mean `service_ms`), each arrival routed to a uniformly drawn server.
///
/// The whole queueing model A3 needs: servers are FIFO and jobs are
/// routed on arrival, so a departure is `max(arrival, free_at) + service`
/// — no event queue. `seeds` are the arrival stream and the
/// routing-plus-service stream; instants are quantised to whole µs like
/// every other virtual time.
fn mean_response_ms(
    rate_per_ms: f64,
    service_ms: f64,
    servers: usize,
    jobs: u64,
    seeds: [u64; 2],
) -> f64 {
    let [mut arrivals, mut service] = seeds.map(DetRng::new);
    let mut free_at = vec![SimTime::ZERO; servers];
    let mut arrival = SimTime::ZERO;
    let mut responses_ms = Vec::with_capacity(jobs as usize);
    for _ in 0..jobs {
        arrival += SimDuration::from_ms_f64(arrivals.next_exp(1.0 / rate_per_ms));
        // A lone server needs no routing draw.
        let server = match servers {
            1 => 0,
            n => service.next_below(n as u64) as usize,
        };
        let done =
            arrival.max(free_at[server]) + SimDuration::from_ms_f64(service.next_exp(service_ms));
        free_at[server] = done;
        responses_ms.push(done.since(arrival).as_ms_f64());
    }
    // Summed smallest-first: the order fixes the rounding, and with it
    // the printed table.
    responses_ms.sort_by(f64::total_cmp);
    responses_ms.iter().sum::<f64>() / jobs as f64
}

/// Runs one sweep point.
pub fn run_point(rate_per_s: f64) -> LoadPoint {
    let rate_per_ms = rate_per_s / 1000.0;
    // Utilisation >= 1 is unstable: report saturation instead of a mean.
    let stable_mean = |servers: usize| {
        (rate_per_ms * SERVICE_MS / (servers as f64) < 0.98)
            .then(|| mean_response_ms(rate_per_ms, SERVICE_MS, servers, JOBS, [101, 102]))
    };
    LoadPoint {
        rate_per_s,
        central_ms: stable_mean(1),
        federated_ms: stable_mean(FEDERATION),
    }
}

/// Runs the sweep.
pub fn run() -> PlainTable {
    let mut table = PlainTable::new(
        format!(
            "Ablation A3 — load response: one central reregistered server vs \
             {FEDERATION} federated subsystem name services (service {SERVICE_MS} ms)"
        ),
        vec!["lookups/s", "central mean (ms)", "federated mean (ms)"],
    );
    for rate in [20.0, 50.0, 80.0, 95.0, 150.0, 300.0] {
        let point = run_point(rate);
        let show = |v: Option<f64>| match v {
            Some(ms) => format!("{ms:.1}"),
            None => "saturated".to_string(),
        };
        table.push_row(vec![
            format!("{rate:.0}"),
            show(point.central_ms),
            show(point.federated_ms),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn federation_wins_at_high_load() {
        let point = run_point(80.0); // rho_central = 0.8, rho_fed = 0.2
        let central = point.central_ms.expect("stable");
        let federated = point.federated_ms.expect("stable");
        assert!(
            federated * 2.0 < central,
            "federated {federated} vs central {central}"
        );
    }

    #[test]
    fn central_saturates_first() {
        let point = run_point(150.0); // rho_central = 1.5
        assert!(point.central_ms.is_none());
        assert!(point.federated_ms.is_some());
    }

    #[test]
    fn mm1_mean_response_matches_theory() {
        // M/M/1: mean response = 1 / (mu - lambda).
        let lambda = 0.02; // jobs/ms
        let mean_service = 25.0; // ms => mu = 0.04/ms, rho = 0.5
        let mean = mean_response_ms(lambda, mean_service, 1, 120_000, [11, 12]);
        let theory = 1.0 / (1.0 / mean_service - lambda); // 50 ms
        let err = (mean - theory).abs() / theory;
        assert!(err < 0.08, "mean {mean} vs theory {theory}");
    }

    #[test]
    fn federation_beats_central_server_under_load() {
        // One central server at rho ~ 0.9 vs four federated servers each at
        // rho ~ 0.225: the paper's scalability argument in miniature.
        let central = mean_response_ms(0.036, 25.0, 1, 60_000, [21, 22]);
        let federated = mean_response_ms(0.036, 25.0, 4, 60_000, [21, 22]);
        assert!(
            federated * 3.0 < central,
            "federated {federated} vs central {central}"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || mean_response_ms(0.05, 10.0, 2, 5_000, [5, 6]);
        assert_eq!(run().to_bits(), run().to_bits());
    }

    #[test]
    fn light_load_is_comparable() {
        let point = run_point(20.0); // rho_central = 0.2
        let central = point.central_ms.expect("stable");
        let federated = point.federated_ms.expect("stable");
        assert!((central - federated).abs() < central * 0.5);
    }
}
