type ('c, 'a) t = {
  key : 'c -> Ckey.t;
  visited : unit Ckey.Tbl.t;
  loc : string;
  queue : 'a Queue.t;
  max_depth : int;
  (* BFS levels are contiguous in the queue: [level_left] nodes of level
     [depth] remain ahead of [next_level] nodes of level [depth + 1] *)
  mutable depth : int;
  mutable level_left : int;
  mutable next_level : int;
  mutable explored : int;
  mutable hits : int;
  mutable misses : int;
  mutable peak : int;
  mutable deepest : int;
  mutable capped : bool;
}

type step =
  | Expand
  | Skip
  | Stop

let create ~key ~size ~loc ~max_depth =
  {
    key;
    visited = Ckey.Tbl.create size;
    loc = Trace.fresh_loc loc;
    queue = Queue.create ();
    max_depth;
    depth = -1;
    level_left = 0;
    next_level = 0;
    explored = 0;
    hits = 0;
    misses = 0;
    peak = 0;
    deepest = 0;
    capped = false;
  }

let offer t c =
  let k = t.key c in
  Trace.access ~loc:t.loc Trace.Read ~atomic:false;
  if Ckey.Tbl.mem t.visited k then begin
    t.hits <- t.hits + 1;
    false
  end
  else begin
    t.misses <- t.misses + 1;
    Trace.access ~loc:t.loc Trace.Write ~atomic:false;
    Ckey.Tbl.replace t.visited k ();
    true
  end

let push t a =
  Queue.add a t.queue;
  t.next_level <- t.next_level + 1

let add t c a = if offer t c then push t a

let note_peak t =
  let len = Queue.length t.queue in
  if len > t.peak then t.peak <- len

let run t ~visit ~expand =
  note_peak t;
  while not (Queue.is_empty t.queue) do
    if t.level_left = 0 then begin
      t.depth <- t.depth + 1;
      t.level_left <- t.next_level;
      t.next_level <- 0
    end;
    t.level_left <- t.level_left - 1;
    let a = Queue.pop t.queue in
    let depth = t.depth in
    t.explored <- t.explored + 1;
    if depth > t.deepest then t.deepest <- depth;
    match visit a depth with
    | Expand ->
      if depth < t.max_depth then begin
        expand a;
        note_peak t
      end
      else t.capped <- true
    | Skip -> ()
    | Stop -> Queue.clear t.queue
  done

let explored t = t.explored
let hits t = t.hits
let misses t = t.misses
let peak t = t.peak
let deepest t = t.deepest
let depth_capped t = t.capped
