//! # traj-service — std-only HTTP query server over the trajectory store
//!
//! The serving layer of the OPERB reproduction: a multi-threaded TCP
//! server (no external crates — hand-rolled HTTP/1.1 subset, `std::net` +
//! `std::thread` only) answering JSON queries from a shared
//! [`traj_store::ShardedStore`].  Ingest through the store's sharded
//! write path proceeds concurrently with reads: the server never takes a
//! global lock, so `trajsimp serve` can keep compressing a live fleet
//! into the store while clients query it.
//!
//! ## Endpoints
//!
//! | Route | Parameters | Answer |
//! |---|---|---|
//! | `GET /devices` | `limit` (optional) | stored device ids |
//! | `GET /time_slice` | `device`, `from`, `to` | segments overlapping the time range + skip stats |
//! | `GET /window` | `min_x`, `min_y`, `max_x`, `max_y`, optional `from`/`to` | per-device matches + skip stats |
//! | `GET /position_at` | `device`, `t` | interpolated position or `null` |
//! | `GET /knn` | `x`, `y` or `points=x1,y1;x2,y2;…`, optional `k` | the `k` nearest devices + prune stats |
//! | `GET /geofences` | — | registered standing fences + registry accounting |
//! | `GET /geofence_add` | `min_x`, `min_y`, `max_x`, `max_y`, optional `name`, `from`/`to` | the new fence's id |
//! | `GET /subscribe` | optional `cursor`, `limit`, `fence` | fence alerts after the cursor + the next cursor |
//! | `GET /stats` | — | store totals + server counters |
//! | `GET /metrics` | — | every series as Prometheus text |
//! | `GET /trace` | `limit` (optional) | the slow-query log's span trees, newest first |
//! | `GET /shutdown` | — | acknowledges, then stops the server gracefully |
//!
//! Every response but `/metrics` is JSON and carries the handler's
//! `latency_us` (from the request's first byte: parsing, the store call
//! and body encoding), and query endpoints
//! report how many blocks the data-skipping metadata pruned.  Every
//! endpoint writes its answer straight into the response buffer; the
//! bytes are those a [`traj_model::json::JsonValue`] tree would render.
//! Device ids, fence ids, sequence numbers, cursors and counts are
//! written as exact integers, above 2⁵³ too.  A client that parses JSON
//! numbers as doubles still loses ids above 2⁵³.
//! Connections are persistent HTTP/1.1 (`Content-Length`-framed, closed
//! on `Connection: close`, HTTP/1.0, shutdown or an idle `io_timeout`).
//! Each open connection has its own thread, which holds one of `workers`
//! handler permits only while answering, so an idle or slow client never
//! stalls the queries of others.  Request parsing is bounded (line
//! length, header count, a header deadline), and so are open connections
//! (`workers + queue_depth`; any further one gets an immediate `503`).
//!
//! ## Consistency model
//!
//! Per-device queries run under that device's shard read lock: a device's
//! answer is always a consistent snapshot of its log.  Fleet-wide queries
//! (`/window`, `/stats`) visit shards one at a time, so concurrent ingest
//! may land between shard visits — each device's data is internally
//! consistent, cross-device results may interleave with writes.  Sealed
//! blocks are immutable, so readers never wait on encoders.
//!
//! ```
//! use std::sync::Arc;
//! use traj_geo::DirectedSegment;
//! use traj_model::{SimplifiedSegment, SimplifiedTrajectory, Trajectory};
//! use traj_service::{client, Server, ServiceConfig};
//! use traj_store::{ShardedStore, StoreConfig};
//!
//! // A one-device store…
//! let store = Arc::new(ShardedStore::new(StoreConfig::default(), 4));
//! let trajectory = Trajectory::from_xy(&[(0.0, 0.0), (50.0, 1.0), (100.0, 0.0)]);
//! let simplified = SimplifiedTrajectory::new(
//!     vec![SimplifiedSegment::new(
//!         DirectedSegment::new(trajectory.first(), trajectory.last()),
//!         0,
//!         2,
//!     )],
//!     trajectory.len(),
//! );
//! store.ingest(17, &simplified, 5.0).unwrap();
//!
//! // …served over real TCP on an ephemeral port.
//! let server = Server::start(Arc::clone(&store), "127.0.0.1:0", ServiceConfig::default()).unwrap();
//! let (status, body) = client::http_get(server.local_addr(), "/devices").unwrap();
//! assert_eq!(status, 200);
//! assert!(body.contains("\"count\":1"));
//! server.stop();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod http;
pub mod server;

pub use client::RetryPolicy;
pub use http::{HttpError, Request};
pub use server::{Server, ServerStats, ServiceConfig};
