(* Rendezvous (highest-random-weight) hashing over FNV-1a 64.  The score
   of (key, shard) folds the shard id into the digest's FNV state, so
   distinct shards see independent-looking scores for the same key and
   the argmax moves only when a *new* shard wins — the resharding
   stability the cluster's elasticity story rests on. *)

let fnv_prime = 0x100000001b3L
let fnv_basis = 0xcbf29ce484222325L

let score raw shard =
  let h = ref fnv_basis in
  let mix byte = h := Int64.mul (Int64.logxor !h (Int64.of_int byte)) fnv_prime in
  String.iter (fun c -> mix (Char.code c)) raw;
  mix (shard land 0xff);
  mix ((shard lsr 8) land 0xff);
  mix ((shard lsr 16) land 0xff);
  mix ((shard lsr 24) land 0xff);
  !h

let owner ~shards key =
  if shards <= 0 then invalid_arg "Shard.owner: shards must be positive";
  let raw = Ts_model.Ckey.to_raw key in
  let best = ref 0 in
  let best_score = ref (score raw 0) in
  for s = 1 to shards - 1 do
    let sc = score raw s in
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
