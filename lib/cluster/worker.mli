(** A cluster worker node: the shard-local half of the distributed
    search.

    A worker owns, per active search, a set of per-shard visited tables
    (keyed by {!Ts_model.Ckey}s) and the current round's configurations,
    and answers the coordinator's round messages: {b ingest}
    (deduplicate a batch of frontier candidates on their keys against
    the owner shard's table, examine the fresh ones), {b expand}
    (enumerate successors of the round's fresh configurations, keep
    them, and report each one's event and owner shard — plus its key
    when another worker owns that shard), and {b finish} (drop the
    search, report telemetry).  A candidate this worker made itself
    arrives as a local ref and is never replayed; one made elsewhere
    arrives as a key and a schedule, replayed only if the key is
    fresh.  All compute runs
    on the event-loop domain — a worker is single-threaded by design;
    parallelism is across workers.

    {b Idempotency.}  Every state-mutating message carries a
    coordinator-assigned per-search sequence number.  The worker
    memoizes the last processed (seq, reply) pair and replays the reply
    verbatim on a duplicate, which is what makes the resilient
    retrying {!Ts_service.Client} safe to use against workers even
    though ingest/expand are not pure queries. *)

type t
(** The worker state container (all active searches). *)

val create : ?verbose:bool -> unit -> t

(** [handle t payload] processes one framed request payload and returns
    the reply document — the full message surface, exposed directly so
    tests and the in-process coordinator peers can drive a worker
    without sockets.  Never raises: failures become typed error
    documents. *)
val handle : t -> string -> string

(** {1 TCP server} *)

type server

type config = {
  host : string;
  port : int;  (** [0] picks an ephemeral port *)
  verbose : bool;
}

val default_config : config

(** [start config] binds, announces ["cluster worker: listening on
    HOST:PORT"] on stdout, and serves on a spawned domain until
    {!request_stop}.
    @raise Unix.Unix_error if the address cannot be bound. *)
val start : config -> server

val port : server -> int
val request_stop : server -> unit

(** Join the loop domain (after {!request_stop}). *)
val wait : server -> unit

val stop : server -> unit
