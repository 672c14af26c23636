(** The single-threaded readiness event loop at the heart of the daemon.

    PR 5's server parked one pool worker per connection in a blocking
    [Frame.read]; BENCH_PR5 showed the warm path entirely cache-bound,
    dominated by that handoff and by per-request frame allocation.  This
    loop replaces it with the classic epoll-shaped design (on
    [Unix.select], the portable stdlib spelling):

    - every socket is non-blocking; one domain owns all of them;
    - each connection carries a {e reusable} read buffer into which the
      kernel scatters bytes and {!Frame.parse} finds frame bounds in
      place — the hit path allocates the payload string and the response,
      nothing else;
    - responses accumulate in a per-connection output buffer and reach
      the kernel in one [write] per readiness event (writev-style
      batching: a pipelined client's whole burst is answered with one
      syscall);
    - cache hits are answered directly on the loop; anything expensive is
      handed to the worker {!Pool} and its answer is delivered back to
      the loop over a self-pipe ({!post}), so the loop never blocks.

    {b Ordering.}  Responses on one connection are delivered in request
    order: while a request is parked in the pool, later frames from the
    same connection wait (buffered, bounded) until its answer is posted.

    {b Threading.}  {!run} and the callbacks execute on the loop's domain
    only.  {!post} is the one thread-safe entry point — call it from any
    worker domain exactly once per [Later] reply. *)

type t

(** One client connection, owned by the loop.  Opaque to callers except
    as a token to hand back to {!post}. *)
type conn

(** What the payload callback decided:
    - [Now response]: answer immediately from the loop (cache hit, cheap
      op, typed error) — the response is queued on the connection in
      order;
    - [Later]: the work went to a pool; the loop parks the connection's
      request stream until {!post} delivers the answer. *)
type reply =
  | Now of string
  | Later

(** [listen ~host ~port] opens a listening TCP socket (close-on-exec,
    [SO_REUSEADDR], backlog 64) and returns it with the port actually
    bound — [port = 0] picks an ephemeral one.  On a bind failure the
    socket is closed before the exception propagates.
    @raise Unix.Unix_error if the address cannot be bound. *)
val listen : host:string -> port:int -> Unix.file_descr * int

val create : lsock:Unix.file_descr -> t

(** [run t ~stop ~on_payload ~on_frame_error] drives the loop on the
    calling domain until [stop ()] holds and the drain completes (all
    parked requests answered and all output flushed, bounded by a few
    seconds).  [on_payload conn payload] is called once per well-framed
    payload; [on_frame_error err] supplies the best-effort error document
    sent before a desynchronized connection is dropped ([None] drops it
    silently).  On exit every connection and the listening socket are
    closed. *)
val run :
  t ->
  stop:(unit -> bool) ->
  on_payload:(conn -> string -> reply) ->
  on_frame_error:(Frame.error -> string option) ->
  unit

(** [post t conn response] delivers a parked request's answer from any
    domain.  Safe after the connection died (the answer is dropped). *)
val post : t -> conn -> string -> unit

(** Loop gauges, readable from any domain (plain reads of monotone or
    point-in-time values — observability, not synchronization). *)
val open_conns : t -> int

val iterations : t -> int
val accepted : t -> int
