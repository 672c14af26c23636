(** Consistent hashing of configuration keys onto shards.

    The reachable-configuration graph is partitioned by {!Ts_model.Ckey}
    digest: every configuration belongs to exactly one of [shards]
    shards, decided by highest-random-weight (rendezvous) hashing of the
    digest bytes against each shard id.  Rendezvous hashing gives the
    cluster its cheap elasticity property: growing the shard count from
    [s] to [s+1] only ever moves keys {e to} the new shard — a key's
    owner among the original [s] shards never changes (its old scores are
    untouched; only the new shard's score can beat them).  The
    resharding test in [test/suite_cluster.ml] pins exactly this.

    Shards are a unit of {e placement}, not of hashing: which worker
    serves a shard is a separate assignment map ({!round_robin}), so
    the placement never rehashes a key.  The answer of a distributed
    search depends only on the key→shard partition, never on the
    shard→worker placement. *)

(** [owner ~shards key] is the owning shard of the key's digest bytes,
    in [0, shards).  Deterministic, placement-independent.
    @raise Invalid_argument if [shards <= 0]. *)
val owner : shards:int -> Ts_model.Ckey.t -> int

(** [round_robin ~shards ~workers] is the initial shard→worker
    assignment map: shard [s] on worker [s mod workers].
    @raise Invalid_argument if [workers <= 0 || shards <= 0]. *)
val round_robin : shards:int -> workers:int -> int array
