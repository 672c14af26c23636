(* Rendezvous (highest-random-weight) hashing over FNV-1a 64.  The score
   of (key, shard) folds the shard id into the digest's FNV state, so
   distinct shards see independent-looking scores for the same key and
   the argmax moves only when a *new* shard wins — the resharding
   stability the cluster's elasticity story rests on. *)

let fnv_prime = 0x100000001b3L
let fnv_basis = 0xcbf29ce484222325L

(* FNV-1a over the digest bytes, then over the shard id's four bytes.
   Every shard's score shares the digest prefix, so it is folded once per
   key; the loops keep the state in a local so it stays unboxed. *)
let mix h byte = Int64.mul (Int64.logxor h (Int64.of_int byte)) fnv_prime

let prefix raw =
  let h = ref fnv_basis in
  for i = 0 to String.length raw - 1 do
    h := mix !h (Char.code (String.unsafe_get raw i))
  done;
  !h

let score prefix shard =
  let h = ref prefix in
  for b = 0 to 3 do
    h := mix !h ((shard lsr (8 * b)) land 0xff)
  done;
  !h

let owner ~shards key =
  if shards <= 0 then invalid_arg "Shard.owner: shards must be positive";
  let p = prefix (Ts_model.Ckey.to_raw key) in
  let best = ref 0 in
  let best_score = ref (score p 0) in
  for s = 1 to shards - 1 do
    let sc = score p s in
    (* unsigned comparison; ties (astronomically unlikely) keep the
       lower shard id, so the map is total and deterministic either way *)
    if Int64.unsigned_compare sc !best_score > 0 then begin
      best := s;
      best_score := sc
    end
  done;
  !best

let round_robin ~shards ~workers =
  if workers <= 0 || shards <= 0 then
    invalid_arg "Shard.round_robin: need positive shards and workers";
  Array.init shards (fun s -> s mod workers)
