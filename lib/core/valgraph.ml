open Ts_model

type stats = {
  nodes : int;
  edges : int;
  bivalent : int;
  univalent0 : int;
  univalent1 : int;
  blocked : int;
}

let dot t ~inputs ~pset ~depth ~max_nodes =
  Ts_obs.Obs.with_span ~cat:"valency" "valgraph.dot" @@ fun sp ->
  let proto = Valency.protocol t in
  let cfg0 = Config.initial proto ~inputs in
  let pk = Ckey.packer proto in
  (* node ids, for the edges into already-seen configurations *)
  let ids = Ckey.Tbl.create 256 in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "digraph valency {\n  rankdir=TB;\n  node [fontsize=10];\n";
  let nodes = ref 0 and edges = ref 0 in
  let biv = ref 0 and uni0 = ref 0 and uni1 = ref 0 and blk = ref 0 in
  let emit_node i cfg =
    incr nodes;
    let shape, color, label =
      match Valency.classify t cfg pset with
      | Valency.Bivalent _ ->
        incr biv;
        "ellipse", "khaki", "bi"
      | Valency.Univalent (v, _) ->
        let v = Value.to_int v in
        if v = 0 then incr uni0 else incr uni1;
        "box", (if v = 0 then "lightcoral" else "lightblue"), Printf.sprintf "%d" v
      | Valency.Blocked ->
        incr blk;
        "diamond", "gray", "?"
    in
    let decided =
      match Config.decided_values cfg with
      | [] -> ""
      | vs -> Printf.sprintf "\\ndec %s" (String.concat "," (List.map Value.to_string vs))
    in
    Buffer.add_string buf
      (Printf.sprintf "  c%d [shape=%s,style=filled,fillcolor=%s,label=\"%s%s\"];\n" i
         shape color label decided)
  in
  let fr =
    Frontier.create ~key:(Ckey.pack pk) ~size:256 ~loc:"valgraph.visited" ~max_depth:depth
  in
  (* number, draw and enqueue a configuration seen for the first time *)
  let fresh_node cfg =
    let i = !nodes in
    Ckey.Tbl.replace ids (Ckey.pack pk cfg) i;
    emit_node i cfg;
    Frontier.push fr (cfg, i);
    i
  in
  if Frontier.offer fr cfg0 then ignore (fresh_node cfg0 : int);
  let all = Pset.all proto.Protocol.num_processes in
  (try
     Frontier.run fr
       ~visit:(fun _ _ -> Frontier.Expand)
       ~expand:(fun (cfg, i) ->
         Config.iter_successors proto cfg all (fun p coin cfg' ->
             let j =
               if Frontier.offer fr cfg' then begin
                 if !nodes >= max_nodes then raise Exit;
                 fresh_node cfg'
               end
               else Ckey.Tbl.find ids (Ckey.pack pk cfg')
             in
             incr edges;
             Buffer.add_string buf
               (Printf.sprintf "  c%d -> c%d [label=\"p%d%s\"];\n" i j p
                  (match coin with None -> "" | Some true -> "+" | Some false -> "-"))))
   with Exit -> ());
  Buffer.add_string buf "}\n";
  Ts_obs.Obs.set_int sp "nodes" !nodes;
  Ts_obs.Obs.set_int sp "edges" !edges;
  ( Buffer.contents buf,
    {
      nodes = !nodes;
      edges = !edges;
      bivalent = !biv;
      univalent0 = !uni0;
      univalent1 = !uni1;
      blocked = !blk;
    } )
