(** The engine's one breadth-first search core.

    Every configuration-graph search in the engine — the checker's
    per-vector exploration and its solo/group termination probes, the
    valency oracle, the valency graph, the analyzer's lint and determinism
    passes, the mutex covering search — is the same loop: a FIFO queue, a
    visited table keyed by packed configurations ({!Ckey}), a depth bound
    and a handful of counters.  This module is that loop, written once.

    Callers supply the start nodes, the key function, the expansion and a
    per-dequeue [visit] callback.  The callback is where per-caller policy
    lives: resource charging, examination, early stop on a target, and
    truncation on a configuration cap.  The core owns nothing else, so one
    search behaves exactly as the hand-written loop it replaces: the same
    dequeue order, the same counters.

    Nodes are the caller's own values (a configuration, or a configuration
    with its reversed schedule); the queue does not store depths — BFS
    levels are contiguous in a FIFO queue, so the core derives each node's
    depth by counting level boundaries.  Expanding a node therefore adds
    nothing per successor beyond what the caller enqueues.

    Visited-table accesses are logged through {!Trace} under a location
    fresh per search, so the race detector can certify that no table is
    ever shared across domains.  A search is single-domain and not
    reentrant; nested searches (a probe run from inside a [visit]) each
    create their own. *)

type ('c, 'a) t
(** A search whose configurations have type ['c] and whose queued nodes
    have type ['a]. *)

(** What [visit] decides for the node just dequeued. *)
type step =
  | Expand  (** expand it, unless it sits at the depth bound *)
  | Skip  (** do not expand it; keep dequeuing *)
  | Stop  (** end the search now, discarding the rest of the queue *)

(** [create ~key ~size ~loc ~max_depth] is an empty search.  [key] packs a
    configuration for the visited table, [size] is the table's initial
    size, [loc] names the table for {!Trace}, and nodes at depth
    [max_depth] or deeper are never expanded. *)
val create :
  key:('c -> Ckey.t) -> size:int -> loc:string -> max_depth:int -> ('c, 'a) t

(** [offer t c] marks [c] visited and is [true] iff it was not already —
    the caller then {!push}es its node.  Counts a table hit or miss. *)
val offer : ('c, _) t -> 'c -> bool

(** [push t a] enqueues a node whose configuration was just {!offer}ed:
    a start node before {!run}, a successor of the node being expanded
    during it. *)
val push : (_, 'a) t -> 'a -> unit

(** [add t c a] is [if offer t c then push t a]. *)
val add : ('c, 'a) t -> 'c -> 'a -> unit

(** [run t ~visit ~expand] dequeues until the queue is empty or [visit]
    says {!Stop}: each node is counted, passed to [visit] with its depth
    (start nodes are at depth 0), and on {!Expand} below the depth bound
    handed to [expand], which offers and pushes its successors.
    Exceptions from either callback propagate; the counters stay
    readable. *)
val run : (_, 'a) t -> visit:('a -> int -> step) -> expand:('a -> unit) -> unit

(** {2 Counters} *)

(** Nodes dequeued. *)
val explored : _ t -> int

(** Offers of an already-visited configuration. *)
val hits : _ t -> int

(** Offers of a fresh configuration (start nodes included). *)
val misses : _ t -> int

(** High-water mark of the queue length, sampled after the start nodes
    and after every expansion. *)
val peak : _ t -> int

(** Depth of the deepest node dequeued. *)
val deepest : _ t -> int

(** Whether some node was left unexpanded because it sat at the depth
    bound. *)
val depth_capped : _ t -> bool
