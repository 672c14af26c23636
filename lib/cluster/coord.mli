(** The cluster coordinator: drives N workers through a level-synchronous
    distributed BFS and reassembles the {e exact} serial answer.

    The partition of work is by configuration key ({!Shard}); each round
    the coordinator routes the frontier candidates to their owner shards
    (batched {b ingest}), collects dedup flags and examine results, asks
    the owners to {b expand} the surviving configurations, and reorders
    everything back into the serial BFS's dequeue order — which is
    (level, lexicographic-schedule) order, so the first violating
    configuration, every counter, and even the serial queue's high-water
    mark are reconstructed exactly.  docs/CLUSTER.md spells out the
    certification argument; test/suite_cluster.ml and the CI smoke hold
    the resulting [result] documents byte-identical to the serial
    engine's.

    Configurations never reach the coordinator: it keeps each frontier
    item's parent index and event, and rebuilds a schedule by walking
    parents — for a candidate routed to another worker, and for a
    witness.

    A worker death (the resilient client exhausting its retries) or a
    blown coordinator deadline produces a structured {!failure} naming
    the dead workers, the shards lost with them and the reassignment a
    retry would use — degraded, never wrong.  A worker's typed error
    reply is a refusal of the request, not a death. *)

module Json := Ts_analysis.Json

(** {1 Peers} *)

type peer = {
  wid : int;  (** worker index; shard assignment maps onto these *)
  name : string;  (** display name, e.g. ["127.0.0.1:4401"] *)
  call : Json.t -> (Json.t, string) result;
      (** one request/response exchange; [Error] marks the worker dead *)
  mutable alive : bool;
}

(** [tcp_peer ~wid ~host ~port] wraps a resilient retrying
    {!Ts_service.Client} (safe against the idempotent worker RPCs). *)
val tcp_peer : ?policy:Ts_service.Client.policy -> wid:int -> host:string -> port:int -> unit -> peer

(** [local_peer ~wid w] drives an in-process {!Worker.t} — no sockets,
    used by the test suite's differential harness. *)
val local_peer : wid:int -> Worker.t -> peer

(** {1 Parameters} *)

type op =
  | Check
  | Resilient
  | Valency

type params = {
  op : op;
  protocol : string;
  n : int;
  k : int;  (** set-agreement k for [Check] *)
  t_faults : int;  (** crash budget for [Resilient] *)
  max_configs : int;
  max_depth : int;
  solo_budget : int;
  check_solo : bool;
  horizon : int option;  (** [Valency]; defaults to [10 * n] *)
  shards : int;
  deadline : float option;  (** coordinator wall-clock budget, seconds *)
  chunk : int;  (** max candidates per frame *)
}

(** Engine defaults mirroring the service request defaults: [k = 1],
    [t_faults = 1], [max_configs = 60_000], [max_depth = 40],
    [solo_budget = 300], [check_solo = true], [shards = 8],
    [chunk = 256], no deadline.  The chunk
    default keeps a single ingest frame's engine work (deep updates plus
    solo probes per candidate) well under the peer RPC timeout: a slow
    frame must mean a dead worker, not a busy one. *)
val default_params : params

(** {1 Outcomes} *)

type failure = {
  reason : [ `Dead_workers | `Deadline | `Refused of string * string ];
      (** [`Refused (code, message)]: a worker answered with a typed error
          envelope (an engine error, a bad request).  No worker is marked
          dead, [lost_shards] and [reassignment] are empty, and {!run}
          does not restart: the same request would be refused again. *)
  dead : (int * string) list;  (** worker id, last error *)
  lost_shards : int list;  (** shards whose visited sets died with them *)
  reassignment : (int * int) list;
      (** shard -> surviving worker map a retry would start from *)
  completed_rounds : int;
  vector : int option;  (** input vector / valency probe in flight *)
}

type outcome =
  | Complete of {
      result : Json.t;
          (** byte-identical (when serialized by {!Ts_analysis.Json}) to
              the serial engine's result document for the same request *)
      telemetry : Json.t;  (** per-worker merged cluster counters *)
    }
  | Failed of failure

(** [run ?restarts params ~peers] executes the request.  On a worker
    death with [restarts > 0] and at least one survivor, the whole
    request is retried from scratch on the survivors (the answer is
    placement-independent, so the retry is byte-identical too). *)
val run : ?restarts:int -> params -> peers:peer list -> outcome

val failure_to_json : failure -> Json.t

(** The op's serial cache identity, salted with a cluster marker so a
    coordinator-side store tier can never collide with (and poison) the
    serial daemon's witness log entries. *)
val store_key : params -> Ts_model.Ckey.t
