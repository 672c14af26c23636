open Ts_model
module Json = Ts_analysis.Json
module Explore = Ts_checker.Explore

(* --- field helpers ------------------------------------------------------- *)

let get_str doc k =
  match Option.bind (Json.member k doc) Json.to_str_opt with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "missing or non-string field %S" k)

let get_int doc k =
  match Option.bind (Json.member k doc) Json.to_int_opt with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "missing or non-integer field %S" k)

let get_int_opt doc k ~default =
  match Json.member k doc with
  | None | Some Json.Null -> Ok default
  | Some v -> (
    match Json.to_int_opt v with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "field %S has the wrong type" k))

let get_bool_opt doc k ~default =
  match Json.member k doc with
  | None | Some Json.Null -> Ok default
  | Some v -> (
    match Json.to_bool_opt v with
    | Some b -> Ok b
    | None -> Error (Printf.sprintf "field %S has the wrong type" k))

let get_list doc k =
  match Json.member k doc with
  | Some (Json.List l) -> Ok l
  | _ -> Error (Printf.sprintf "missing or non-list field %S" k)

(* --- block framing: unsigned varints, base64 on the wire ------------------ *)

exception Malformed of string

let add_uvarint buf n =
  if n < 0 then invalid_arg "Msg: negative varint";
  let rec go n =
    if n < 0x80 then Buffer.add_char buf (Char.unsafe_chr n)
    else begin
      Buffer.add_char buf (Char.unsafe_chr (n land 0x7f lor 0x80));
      go (n lsr 7)
    end
  in
  go n

(* signed deltas: 0, -1, 1, -2, ... -> 0, 1, 2, 3, ... *)
let zigzag i = (i lsl 1) lxor (i asr (Sys.int_size - 1))
let unzigzag u = (u lsr 1) lxor -(u land 1)

type reader = {
  s : string;
  mutable pos : int;
}

let at_end r = r.pos >= String.length r.s

(* at most 8 groups (56 bits): every count, id and code fits, and the
   result can never wrap negative *)
let read_uvarint r =
  let rec go shift acc =
    if at_end r then raise (Malformed "truncated varint");
    if shift > 49 then raise (Malformed "varint too long");
    let b = Char.code r.s.[r.pos] in
    r.pos <- r.pos + 1;
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

let read_bytes r n =
  if r.pos + n > String.length r.s then raise (Malformed "truncated bytes");
  let b = String.sub r.s r.pos n in
  r.pos <- r.pos + n;
  b

let b64_alphabet =
  "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"

let b64_index =
  let t = Array.make 256 (-1) in
  String.iteri (fun i c -> t.(Char.code c) <- i) b64_alphabet;
  t

let b64_encode s =
  let n = String.length s in
  let out = Bytes.make ((n + 2) / 3 * 4) '=' in
  let byte i = if i < n then Char.code s.[i] else 0 in
  let rec go i o =
    if i < n then begin
      let v = (byte i lsl 16) lor (byte (i + 1) lsl 8) lor byte (i + 2) in
      let chars = min 4 (n - i + 1) in
      for k = 0 to chars - 1 do
        Bytes.set out (o + k) b64_alphabet.[(v lsr (18 - (6 * k))) land 63]
      done;
      go (i + 3) (o + 4)
    end
  in
  go 0 0;
  Bytes.unsafe_to_string out

let b64_decode s =
  let n = String.length s in
  if n mod 4 <> 0 then raise (Malformed "base64 length not a multiple of 4");
  let pad =
    if n > 0 && s.[n - 1] = '=' then if s.[n - 2] = '=' then 2 else 1 else 0
  in
  let out = Bytes.create ((n / 4 * 3) - pad) in
  for g = 0 to (n / 4) - 1 do
    let v = ref 0 in
    for k = 0 to 3 do
      let i = (4 * g) + k in
      let d = if i >= n - pad then 0 else b64_index.(Char.code s.[i]) in
      if d < 0 then raise (Malformed "bad base64 character");
      v := (!v lsl 6) lor d
    done;
    for k = 0 to 2 do
      let o = (3 * g) + k in
      if o < Bytes.length out then
        Bytes.set out o (Char.unsafe_chr ((!v lsr (16 - (8 * k))) land 0xff))
    done
  done;
  Bytes.unsafe_to_string out

let encode f =
  let buf = Buffer.create 256 in
  f buf;
  b64_encode (Buffer.contents buf)

(* Items are read until the block is exhausted, so an item cut short
   anywhere, the last one included, makes the whole block malformed. *)
let decode block f =
  match
    let r = { s = b64_decode block; pos = 0 } in
    let acc = ref [] in
    while not (at_end r) do
      acc := f r :: !acc
    done;
    List.rev !acc
  with
  | l -> Ok l
  | exception Malformed m -> Error m

(* --- events ---------------------------------------------------------------- *)

let event_code { Execution.pid; coin } =
  (3 * pid) + match coin with None -> 0 | Some true -> 1 | Some false -> 2

let event_of_code c =
  {
    Execution.pid = c / 3;
    coin = (match c mod 3 with 0 -> None | 1 -> Some true | _ -> Some false);
  }

(* --- ingest candidates ----------------------------------------------------- *)

type cand =
  | Local of int
  | Remote of string * Execution.event list

(* One varint head per candidate, low bit the kind.  A local ref carries
   its id as a zigzag delta from the previous local ref + 1: an owner's
   own successors reach it in generation order, so the delta is 0 and
   the candidate costs one byte.  A remote key carries its length in the
   head, then the key bytes, then its schedule as event codes. *)
let cands_to_block cs =
  encode (fun buf ->
      let prev = ref (-1) in
      List.iter
        (function
          | Local id ->
            add_uvarint buf (zigzag (id - !prev - 1) lsl 1);
            prev := id
          | Remote (key, sched) ->
            add_uvarint buf ((String.length key lsl 1) lor 1);
            Buffer.add_string buf key;
            add_uvarint buf (List.length sched);
            List.iter (fun e -> add_uvarint buf (event_code e)) sched)
        cs)

let cands_of_block block =
  let prev = ref (-1) in
  decode block (fun r ->
      let head = read_uvarint r in
      if head land 1 = 0 then begin
        let id = !prev + 1 + unzigzag (head lsr 1) in
        if id < 0 then raise (Malformed "negative local ref");
        prev := id;
        Local id
      end
      else
        let key = read_bytes r (head lsr 1) in
        let len = read_uvarint r in
        if len > String.length r.s - r.pos then raise (Malformed "schedule too long");
        Remote (key, List.init len (fun _ -> event_of_code (read_uvarint r))))

(* --- ingest verdicts -------------------------------------------------------- *)

type verdict =
  | Dup
  | Fresh of {
      stop : int;
      probes : int;
    }

let verdicts_to_block vs =
  encode (fun buf ->
      List.iter
        (function
          | Dup -> add_uvarint buf 0
          | Fresh { stop; probes } ->
            if stop < 0 || stop > 3 then invalid_arg "Msg: stop mask out of range";
            add_uvarint buf (1 + stop + (4 * probes)))
        vs)

let verdicts_of_block block =
  decode block (fun r ->
      match read_uvarint r with
      | 0 -> Dup
      | c -> Fresh { stop = (c - 1) land 3; probes = (c - 1) lsr 2 })

(* --- index lists ------------------------------------------------------------ *)

let ints_to_block is =
  encode (fun buf ->
      let prev = ref (-1) in
      List.iter
        (fun i ->
          add_uvarint buf (zigzag (i - !prev - 1));
          prev := i)
        is)

let ints_of_block block =
  let prev = ref (-1) in
  decode block (fun r ->
      let i = !prev + 1 + unzigzag (read_uvarint r) in
      prev := i;
      i)

(* --- expand successors ------------------------------------------------------ *)

type succ = {
  event : Execution.event;
  shard : int;
  key : string option;
}

(* Per item: its successor count, then one varint per successor packing
   (event, shard, key present) — one byte for small n — and the key's
   length and bytes when present. *)
let succs_to_block ~shards items =
  encode (fun buf ->
      List.iter
        (fun succs ->
          add_uvarint buf (List.length succs);
          List.iter
            (fun { event; shard; key } ->
              let code = (event_code event * shards) + shard in
              match key with
              | None -> add_uvarint buf (code lsl 1)
              | Some k ->
                add_uvarint buf ((code lsl 1) lor 1);
                add_uvarint buf (String.length k);
                Buffer.add_string buf k)
            succs)
        items)

let succs_of_block ~shards block =
  decode block (fun r ->
      let count = read_uvarint r in
      if count > String.length r.s - r.pos then raise (Malformed "successor count too large");
      List.init count (fun _ ->
          let head = read_uvarint r in
          let code = head lsr 1 in
          let key =
            if head land 1 = 0 then None else Some (read_bytes r (read_uvarint r))
          in
          { event = event_of_code (code / shards); shard = code mod shards; key }))

(* --- values and violations ----------------------------------------------- *)

let rec value_to_json = function
  | Value.Bot -> Json.Null
  | Value.Int i -> Json.Int i
  | Value.Bool b -> Json.Bool b
  | Value.Pair (a, b) ->
    Json.Obj [ ("fst", value_to_json a); ("snd", value_to_json b) ]
  | Value.List vs -> Json.List (List.map value_to_json vs)

let rec value_of_json = function
  | Json.Null -> Ok Value.Bot
  | Json.Int i -> Ok (Value.Int i)
  | Json.Bool b -> Ok (Value.Bool b)
  | Json.Obj _ as doc -> (
    match (Json.member "fst" doc, Json.member "snd" doc) with
    | Some f, Some s ->
      Result.bind (value_of_json f) (fun f ->
          Result.bind (value_of_json s) (fun s -> Ok (Value.Pair (f, s))))
    | _ -> Error "value object must have fst/snd")
  | Json.List l ->
    let rec go acc = function
      | [] -> Ok (Value.List (List.rev acc))
      | v :: rest -> (
        match value_of_json v with Ok v -> go (v :: acc) rest | Error _ as e -> e)
    in
    go [] l
  | Json.Float _ | Json.Str _ -> Error "unencodable value"

let values_of_json l =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | v :: rest -> (
      match value_of_json v with Ok v -> go (v :: acc) rest | Error _ as e -> e)
  in
  go [] l

let pids_of_json l =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | Json.Int p :: rest -> go (p :: acc) rest
    | _ -> Error "pid list must hold integers"
  in
  go [] l

let violation_payload_to_json v =
  let kind = Explore.violation_kind v in
  let extra =
    match v with
    | Explore.Agreement_violation { values; _ } ->
      [ ("values", Json.List (List.map value_to_json values)) ]
    | Explore.Validity_violation { value; _ } -> [ ("value", value_to_json value) ]
    | Explore.Solo_stuck { pid; _ } -> [ ("pid", Json.Int pid) ]
    | Explore.Crash_stuck { crashed; survivors; _ } ->
      [
        ("crashed", Json.List (List.map (fun p -> Json.Int p) crashed));
        ("survivors", Json.List (List.map (fun p -> Json.Int p) survivors));
      ]
  in
  Json.Obj (("kind", Json.Str kind) :: extra)

let violation_of_payload doc ~inputs ~schedule =
  let ( let* ) = Result.bind in
  let* kind = get_str doc "kind" in
  match kind with
  | "agreement" ->
    let* vs = get_list doc "values" in
    let* values = values_of_json vs in
    Ok (Explore.Agreement_violation { inputs; schedule; values })
  | "validity" -> (
    match Json.member "value" doc with
    | None -> Error "validity payload missing value"
    | Some v ->
      let* value = value_of_json v in
      Ok (Explore.Validity_violation { inputs; schedule; value }))
  | "solo-termination" ->
    let* pid = get_int doc "pid" in
    Ok (Explore.Solo_stuck { inputs; schedule; pid })
  | "resilience" ->
    let* cl = get_list doc "crashed" in
    let* sl = get_list doc "survivors" in
    let* crashed = pids_of_json cl in
    let* survivors = pids_of_json sl in
    Ok (Explore.Crash_stuck { inputs; schedule; crashed; survivors })
  | k -> Error (Printf.sprintf "unknown violation kind %S" k)

(* --- envelopes ----------------------------------------------------------- *)

let ok_result ~id result =
  Ts_service.Response.envelope_raw ~id ~provenance:None ~cache_key:None
    ~elapsed_ms:0. ~result:(Json.to_string result)

let result_of_envelope doc =
  match Json.member "ok" doc with
  | Some (Json.Bool true) -> (
    match Json.member "result" doc with
    | Some r -> Ok r
    | None -> Error ("bad-envelope", "envelope missing result"))
  | _ ->
    let field k =
      Option.bind
        (Option.bind (Json.member "error" doc) (Json.member k))
        Json.to_str_opt
    in
    Error
      ( Option.value (field "code") ~default:"error",
        Option.value (field "message") ~default:"unexplained failure envelope" )
