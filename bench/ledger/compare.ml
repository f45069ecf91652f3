(* `ledger.exe compare PARENT.jsonl CHANGE.jsonl`: judge a change against
   its parent from two sets of `--out` records, by the rule of
   choosing-metrics §8.  The i-th record of a workload on one side is
   paired with the i-th on the other; the sets are meant to be made as
   alternating ABBA runs.

   - improved: at least ten pairs, the change wins at least nine tenths
     of them (ties count for neither), and the medians differ, in the
     better direction, by more than the parent's interquartile range;
   - unresolved: the parent's own spread (IQR over median) is wider than
     the metric's bound, and not every change run beats every parent run;
   - worse: the change's median is worse than the parent's by more than
     the bound;
   - no-worse: otherwise. *)

type record = {
  workload : string;
  host : Host.t;
  metrics : (string * float) list;
}

let record_of_json j =
  let open Nvmtrace.Json in
  match (member "workload" j, Option.bind (member "host" j) Host.of_json, member "metrics" j) with
  | Some (Str workload), Some host, Some (Obj ms) ->
      Some
        {
          workload;
          host;
          metrics =
            List.filter_map
              (fun (k, v) -> Option.map (fun f -> (k, f)) (to_float v))
              ms;
        }
  | _ -> None

let load path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun l ->
         match Result.map record_of_json (Nvmtrace.Json.of_string l) with
         | Ok (Some r) -> r
         | Ok None | Error _ ->
             failwith (Printf.sprintf "%s: not a ledger record: %s" path l))

type verdict = Improved | No_worse | Worse | Unresolved

let verdict_name = function
  | Improved -> "improved"
  | No_worse -> "no-worse"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

let verdict (m : Metric.t) ~parent ~change =
  let better a b =
    match m.Metric.better with Metric.Higher -> a > b | Metric.Lower -> a < b
  in
  let rec zip a b =
    match (a, b) with x :: a, y :: b -> (x, y) :: zip a b | _ -> []
  in
  let pairs = zip parent change in
  let wins = List.length (List.filter (fun (p, c) -> better c p) pairs) in
  let mp = Stats.median parent and mc = Stats.median change in
  let iqr =
    if List.length parent < 2 then infinity
    else
      let q1, _, q3 = Stats.quartiles parent in
      q3 -. q1
  in
  if
    List.length pairs >= 10
    && float_of_int wins >= 0.9 *. float_of_int (List.length pairs)
    && better mc mp
    && Float.abs (mc -. mp) > iqr
  then Improved
  else if
    iqr /. Float.abs mp > m.Metric.bound
    && not (List.for_all (fun c -> List.for_all (fun p -> better c p) parent) change)
  then Unresolved
  else if Metric.worsening m ~base:mp mc > m.Metric.bound then Worse
  else No_worse

(** Print one row per (workload, end-to-end metric); exit code 2 when the
    records' host fingerprints differ, 1 when any row is worse. *)
let run parent_path change_path =
  let parent = load parent_path and change = load change_path in
  match parent @ change with
  | [] ->
      prerr_endline "ledger compare: no records";
      2
  | first :: rest ->
      match List.find_opt (fun r -> not (Host.same_host r.host first.host)) rest with
      | Some r ->
          Printf.eprintf
            "ledger compare: refusing: host fingerprints differ\n  %s\n  %s\n"
            (Host.to_string first.host) (Host.to_string r.host);
          2
      | None ->
          let workloads =
            List.sort_uniq compare (List.map (fun r -> r.workload) parent)
          in
          let worse = ref false in
          Printf.printf "%-14s %-18s %14s %14s  %s\n" "workload" "metric"
            "parent" "change" "verdict";
          List.iter
            (fun w ->
              let values side name =
                List.filter_map
                  (fun r -> if r.workload = w then List.assoc_opt name r.metrics else None)
                  side
              in
              List.iter
                (fun (m : Metric.t) ->
                  match (values parent m.Metric.name, values change m.Metric.name) with
                  | [], _ | _, [] -> ()
                  | p, c ->
                      let v = verdict m ~parent:p ~change:c in
                      if v = Worse then worse := true;
                      Printf.printf "%-14s %-18s %14.6g %14.6g  %s (n=%d/%d)\n" w
                        m.Metric.name (Stats.median p) (Stats.median c)
                        (verdict_name v) (List.length p) (List.length c))
                Metric.end_to_end)
            workloads;
          if !worse then 1 else 0
