(** Continuous windowed traffic recorder + always-on flight ring (see the
    interface for the taxonomy and exactness contract). *)

(* ------------------------------------------------------------------ *)
(* Attribution taxonomy                                                *)

type cause =
  | Mutator
  | Evac_copy
  | Wc_writeback
  | Header_map
  | Flush_pipe
  | Gc_other

let cause_count = 6

let cause_index = function
  | Mutator -> 0
  | Evac_copy -> 1
  | Wc_writeback -> 2
  | Header_map -> 3
  | Flush_pipe -> 4
  | Gc_other -> 5

let cause_name = function
  | Mutator -> "mutator"
  | Evac_copy -> "evac-copy"
  | Wc_writeback -> "wc-writeback"
  | Header_map -> "header-map"
  | Flush_pipe -> "flush-pipe"
  | Gc_other -> "gc-other"

let all_causes =
  [ Mutator; Evac_copy; Wc_writeback; Header_map; Flush_pipe; Gc_other ]

(* Channel = (space, direction, cause), flattened.  Group index g in 0..3
   is dram-read, dram-write, nvm-read, nvm-write. *)
let group_count = 4
let channel_count = group_count * cause_count

let group ~nvm ~write = ((if nvm then 1 else 0) * 2) + if write then 1 else 0
let group_name g = [| "dram_read"; "dram_write"; "nvm_read"; "nvm_write" |].(g)

let channel ~nvm ~write c = (group ~nvm ~write * cause_count) + cause_index c

let cause_of_index i = List.nth all_causes i

let channel_name i =
  Printf.sprintf "%s_%s"
    (group_name (i / cause_count))
    (cause_name (cause_of_index (i mod cause_count)))

let live_bytes_track = "gc.live_bytes_evacuated"

(* ------------------------------------------------------------------ *)
(* State                                                               *)

(* Gauge-style sample track: windowed sum + count (for per-window
   averages) plus the latest value. *)
type sample_track = {
  st_sum : Simstats.Timeseries.t;
  st_count : Simstats.Timeseries.t;
  mutable st_last : float;
  mutable st_n : int;
}

(* Cumulative counter track: windowed increments + an exact running
   total. *)
type counter_track = {
  ct_series : Simstats.Timeseries.t;
  mutable ct_total : float;
}

(* Bounded ring of the most recent raw traffic events, always on: the
   crash-dump "black box".  Stores parallel arrays to stay
   allocation-free per event. *)
type flight = {
  f_cap : int;
  f_ns : float array;
  f_chan : int array;
  f_bytes : float array;
  mutable f_pos : int;  (** next write slot *)
  mutable f_len : int;  (** valid entries (saturates at [f_cap]) *)
}

(* Bounded ring of recent sample/track events (named, so boxed). *)
type flight_samples = {
  fs_cap : int;
  fs_ns : float array;
  fs_name : string array;
  fs_value : float array;
  mutable fs_pos : int;
  mutable fs_len : int;
}

type t = {
  window_ns : float;
  series : Simstats.Timeseries.t array;  (** [channel_count] windowed series *)
  totals : float array;
      (** [channel_count] exact running byte totals — every contribution
          is an integer-valued float, so these sum exactly to
          {!Memsim.Memory}'s aggregate counters *)
  samples : (string, sample_track) Hashtbl.t;
  tracks : (string, counter_track) Hashtbl.t;
  mutable last_ns : float;  (** latest simulated instant recorded *)
  flight : flight;
  flight_samples : flight_samples;
}

let create ?(window_ns = 1e6) ?(flight_events = 4096) () =
  if not (window_ns > 0.0 && Float.is_finite window_ns) then
    invalid_arg "Recorder.create: window_ns must be positive and finite";
  let cap = max 16 flight_events in
  let scap = max 16 (flight_events / 8) in
  {
    window_ns;
    series =
      Array.init channel_count (fun _ ->
          Simstats.Timeseries.create ~bucket_ns:window_ns);
    totals = Array.make channel_count 0.0;
    samples = Hashtbl.create 8;
    tracks = Hashtbl.create 4;
    last_ns = 0.0;
    flight =
      {
        f_cap = cap;
        f_ns = Array.make cap 0.0;
        f_chan = Array.make cap 0;
        f_bytes = Array.make cap 0.0;
        f_pos = 0;
        f_len = 0;
      };
    flight_samples =
      {
        fs_cap = scap;
        fs_ns = Array.make scap 0.0;
        fs_name = Array.make scap "";
        fs_value = Array.make scap 0.0;
        fs_pos = 0;
        fs_len = 0;
      };
  }

let window_ns t = t.window_ns

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)

let flight_push f ~ns ~chan ~bytes =
  f.f_ns.(f.f_pos) <- ns;
  f.f_chan.(f.f_pos) <- chan;
  f.f_bytes.(f.f_pos) <- bytes;
  f.f_pos <- (f.f_pos + 1) mod f.f_cap;
  if f.f_len < f.f_cap then f.f_len <- f.f_len + 1

let flight_sample_push fs ~ns ~name ~value =
  fs.fs_ns.(fs.fs_pos) <- ns;
  fs.fs_name.(fs.fs_pos) <- name;
  fs.fs_value.(fs.fs_pos) <- value;
  fs.fs_pos <- (fs.fs_pos + 1) mod fs.fs_cap;
  if fs.fs_len < fs.fs_cap then fs.fs_len <- fs.fs_len + 1

let traffic t ~from_ns ~until_ns ~nvm ~write ~cause ~bytes =
  if bytes > 0.0 then begin
    let ch = channel ~nvm ~write cause in
    t.totals.(ch) <- t.totals.(ch) +. bytes;
    (* Spread over the simulated duration for smooth per-window curves;
       the exact accounting lives in [totals]. *)
    Simstats.Timeseries.add_spread t.series.(ch) ~from_ns ~until_ns bytes;
    if until_ns > t.last_ns then t.last_ns <- until_ns;
    flight_push t.flight ~ns:until_ns ~chan:ch ~bytes
  end

let sample t ~now_ns name v =
  let st =
    match Hashtbl.find_opt t.samples name with
    | Some st -> st
    | None ->
        let st =
          {
            st_sum = Simstats.Timeseries.create ~bucket_ns:t.window_ns;
            st_count = Simstats.Timeseries.create ~bucket_ns:t.window_ns;
            st_last = 0.0;
            st_n = 0;
          }
        in
        Hashtbl.replace t.samples name st;
        st
  in
  Simstats.Timeseries.add st.st_sum ~time_ns:now_ns v;
  Simstats.Timeseries.add st.st_count ~time_ns:now_ns 1.0;
  st.st_last <- v;
  st.st_n <- st.st_n + 1;
  if now_ns > t.last_ns then t.last_ns <- now_ns;
  flight_sample_push t.flight_samples ~ns:now_ns ~name ~value:v

let track t ~now_ns name v =
  let ct =
    match Hashtbl.find_opt t.tracks name with
    | Some ct -> ct
    | None ->
        let ct =
          {
            ct_series = Simstats.Timeseries.create ~bucket_ns:t.window_ns;
            ct_total = 0.0;
          }
        in
        Hashtbl.replace t.tracks name ct;
        ct
  in
  Simstats.Timeseries.add ct.ct_series ~time_ns:now_ns v;
  ct.ct_total <- ct.ct_total +. v;
  if now_ns > t.last_ns then t.last_ns <- now_ns

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)

let total t ~nvm ~write cause = t.totals.(channel ~nvm ~write cause)

let space_total t ~nvm ~write =
  List.fold_left (fun acc c -> acc +. total t ~nvm ~write c) 0.0 all_causes

let series t ~nvm ~write cause = t.series.(channel ~nvm ~write cause)

let track_total t name =
  match Hashtbl.find_opt t.tracks name with
  | Some ct -> ct.ct_total
  | None -> 0.0

let last_sample t name =
  match Hashtbl.find_opt t.samples name with
  | Some st when st.st_n > 0 -> Some st.st_last
  | Some _ | None -> None

let windows t =
  let n = ref 0 in
  Array.iter (fun s -> n := max !n (Simstats.Timeseries.length s)) t.series;
  Hashtbl.iter
    (fun _ ct -> n := max !n (Simstats.Timeseries.length ct.ct_series))
    t.tracks;
  Hashtbl.iter
    (fun _ st -> n := max !n (Simstats.Timeseries.length st.st_sum))
    t.samples;
  !n

(** NVM bytes written per live byte evacuated ([nan] before the first
    evacuation). *)
let write_amplification t =
  let live = track_total t live_bytes_track in
  if live <= 0.0 then nan else space_total t ~nvm:true ~write:true /. live

let sorted_keys tbl =
  Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort String.compare

(* ------------------------------------------------------------------ *)
(* Merge (deterministic parallel join)                                 *)

let merge_series ~window_ns ~into src =
  for i = 0 to Simstats.Timeseries.length src - 1 do
    let v = Simstats.Timeseries.get src i in
    if v <> 0.0 then
      Simstats.Timeseries.add into
        ~time_ns:((float_of_int i +. 0.5) *. window_ns)
        v
  done

let merge ~into src =
  if into.window_ns <> src.window_ns then
    invalid_arg "Recorder.merge: window_ns mismatch";
  Array.iteri
    (fun i s -> merge_series ~window_ns:into.window_ns ~into:into.series.(i) s)
    src.series;
  Array.iteri (fun i v -> into.totals.(i) <- into.totals.(i) +. v) src.totals;
  List.iter
    (fun name ->
      let st = Hashtbl.find src.samples name in
      let dst =
        match Hashtbl.find_opt into.samples name with
        | Some d -> d
        | None ->
            let d =
              {
                st_sum = Simstats.Timeseries.create ~bucket_ns:into.window_ns;
                st_count = Simstats.Timeseries.create ~bucket_ns:into.window_ns;
                st_last = 0.0;
                st_n = 0;
              }
            in
            Hashtbl.replace into.samples name d;
            d
      in
      merge_series ~window_ns:into.window_ns ~into:dst.st_sum st.st_sum;
      merge_series ~window_ns:into.window_ns ~into:dst.st_count st.st_count;
      if st.st_n > 0 then dst.st_last <- st.st_last;
      dst.st_n <- dst.st_n + st.st_n)
    (sorted_keys src.samples);
  List.iter
    (fun name ->
      let ct = Hashtbl.find src.tracks name in
      let dst =
        match Hashtbl.find_opt into.tracks name with
        | Some d -> d
        | None ->
            let d =
              {
                ct_series = Simstats.Timeseries.create ~bucket_ns:into.window_ns;
                ct_total = 0.0;
              }
            in
            Hashtbl.replace into.tracks name d;
            d
      in
      merge_series ~window_ns:into.window_ns ~into:dst.ct_series ct.ct_series;
      dst.ct_total <- dst.ct_total +. ct.ct_total)
    (sorted_keys src.tracks);
  if src.last_ns > into.last_ns then into.last_ns <- src.last_ns;
  (* Replay the source flight rings in event order (oldest first). *)
  let f = src.flight in
  for k = 0 to f.f_len - 1 do
    let i = (f.f_pos - f.f_len + k + (2 * f.f_cap)) mod f.f_cap in
    flight_push into.flight ~ns:f.f_ns.(i) ~chan:f.f_chan.(i)
      ~bytes:f.f_bytes.(i)
  done;
  let fs = src.flight_samples in
  for k = 0 to fs.fs_len - 1 do
    let i = (fs.fs_pos - fs.fs_len + k + (2 * fs.fs_cap)) mod fs.fs_cap in
    flight_sample_push into.flight_samples ~ns:fs.fs_ns.(i)
      ~name:fs.fs_name.(i) ~value:fs.fs_value.(i)
  done

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)

let g17 = Printf.sprintf "%.17g"

let series_get s i =
  if i < Simstats.Timeseries.length s then Simstats.Timeseries.get s i else 0.0

(** Per-window CSV: one row per window plus a final exact-totals row
    (first column ["total"], channel columns from the exact running
    accumulators, track columns from their running totals). *)
let to_csv t =
  let buf = Buffer.create 4096 in
  let sample_names = sorted_keys t.samples in
  let track_names = sorted_keys t.tracks in
  Buffer.add_string buf "window_ms";
  for ch = 0 to channel_count - 1 do
    Buffer.add_char buf ',';
    Buffer.add_string buf (channel_name ch)
  done;
  List.iter
    (fun n -> Buffer.add_string buf (Printf.sprintf ",track:%s" n))
    track_names;
  List.iter
    (fun n -> Buffer.add_string buf (Printf.sprintf ",sample:%s" n))
    sample_names;
  Buffer.add_char buf '\n';
  let n = windows t in
  for w = 0 to n - 1 do
    Buffer.add_string buf
      (Printf.sprintf "%.3f" (float_of_int w *. t.window_ns /. 1e6));
    for ch = 0 to channel_count - 1 do
      Buffer.add_char buf ',';
      Buffer.add_string buf (g17 (series_get t.series.(ch) w))
    done;
    List.iter
      (fun name ->
        let ct = Hashtbl.find t.tracks name in
        Buffer.add_char buf ',';
        Buffer.add_string buf (g17 (series_get ct.ct_series w)))
      track_names;
    List.iter
      (fun name ->
        let st = Hashtbl.find t.samples name in
        let c = series_get st.st_count w in
        Buffer.add_char buf ',';
        Buffer.add_string buf
          (if c > 0.0 then g17 (series_get st.st_sum w /. c) else ""))
      sample_names;
    Buffer.add_char buf '\n'
  done;
  Buffer.add_string buf "total";
  for ch = 0 to channel_count - 1 do
    Buffer.add_char buf ',';
    Buffer.add_string buf (g17 t.totals.(ch))
  done;
  List.iter
    (fun name ->
      Buffer.add_char buf ',';
      Buffer.add_string buf (g17 (Hashtbl.find t.tracks name).ct_total))
    track_names;
  List.iter
    (fun name ->
      let st = Hashtbl.find t.samples name in
      Buffer.add_char buf ',';
      Buffer.add_string buf (if st.st_n > 0 then g17 st.st_last else ""))
    sample_names;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(** Prometheus-style text exposition of the exact totals (values printed
    with 17 significant digits, so they round-trip to the exact floats). *)
let to_prometheus t =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    "# HELP nvmgc_traffic_bytes_total Simulated bytes by space, direction \
     and cause.\n# TYPE nvmgc_traffic_bytes_total counter\n";
  for ch = 0 to channel_count - 1 do
    let g = ch / cause_count in
    let parts = String.split_on_char '_' (group_name g) in
    let space = List.nth parts 0 and dir = List.nth parts 1 in
    Buffer.add_string buf
      (Printf.sprintf
         "nvmgc_traffic_bytes_total{space=%S,dir=%S,cause=%S} %s\n" space dir
         (cause_name (cause_of_index (ch mod cause_count)))
         (g17 t.totals.(ch)))
  done;
  Buffer.add_string buf "# TYPE nvmgc_track_total counter\n";
  List.iter
    (fun name ->
      Buffer.add_string buf
        (Printf.sprintf "nvmgc_track_total{name=%S} %s\n" name
           (g17 (Hashtbl.find t.tracks name).ct_total)))
    (sorted_keys t.tracks);
  Buffer.add_string buf "# TYPE nvmgc_sample_last gauge\n";
  List.iter
    (fun name ->
      let st = Hashtbl.find t.samples name in
      if st.st_n > 0 then
        Buffer.add_string buf
          (Printf.sprintf "nvmgc_sample_last{name=%S} %s\n" name
             (g17 st.st_last)))
    (sorted_keys t.samples);
  let wa = write_amplification t in
  if Float.is_finite wa then
    Buffer.add_string buf
      (Printf.sprintf "# TYPE nvmgc_write_amplification gauge\n\
                       nvmgc_write_amplification %s\n"
         (g17 wa));
  Buffer.contents buf

(** Inject Chrome counter tracks ("ph":"C") into a tracer: one
    per-window event per traffic group (args keyed by cause), plus a
    cumulative write-amplification track.  Call after the run, before
    serializing the tracer. *)
let add_counter_tracks t tracer =
  let n = windows t in
  for w = 0 to n - 1 do
    let ts_ns = float_of_int w *. t.window_ns in
    for g = 0 to group_count - 1 do
      let values =
        List.filter_map
          (fun c ->
            let v = series_get t.series.((g * cause_count) + cause_index c) w in
            if v <> 0.0 then Some (cause_name c, v) else None)
          all_causes
      in
      if values <> [] then
        Tracer.counter tracer
          ~name:("bytes/" ^ group_name g)
          ~ts_ns ~values
    done
  done;
  (* Cumulative write amplification per window. *)
  let live_series =
    Option.map
      (fun ct -> ct.ct_series)
      (Hashtbl.find_opt t.tracks live_bytes_track)
  in
  match live_series with
  | None -> ()
  | Some live_series ->
      let nvm_w = ref 0.0 and live = ref 0.0 in
      for w = 0 to n - 1 do
        List.iter
          (fun c ->
            nvm_w := !nvm_w +. series_get (series t ~nvm:true ~write:true c) w)
          all_causes;
        live := !live +. series_get live_series w;
        if !live > 0.0 then
          Tracer.counter tracer ~name:"write-amplification"
            ~ts_ns:(float_of_int w *. t.window_ns)
            ~values:[ ("ratio", !nvm_w /. !live) ]
      done

(* ------------------------------------------------------------------ *)
(* Flight dump                                                         *)

let max_dump_windows = 64
let max_dump_samples = 32

(** Human-readable dump of the flight ring: the last covered windows
    with their per-channel byte sums, then the most recent samples.
    Bounded output regardless of run length. *)
let flight_dump t =
  let buf = Buffer.create 2048 in
  let f = t.flight in
  if f.f_len = 0 then
    Buffer.add_string buf "flight recorder: no traffic recorded\n"
  else begin
    (* Aggregate ring events into per-window channel sums. *)
    let per_window : (int, float array) Hashtbl.t = Hashtbl.create 64 in
    let lo = ref max_int and hi = ref min_int in
    for k = 0 to f.f_len - 1 do
      let i = (f.f_pos - f.f_len + k + (2 * f.f_cap)) mod f.f_cap in
      let w = int_of_float (f.f_ns.(i) /. t.window_ns) in
      if w < !lo then lo := w;
      if w > !hi then hi := w;
      let cells =
        match Hashtbl.find_opt per_window w with
        | Some cells -> cells
        | None ->
            let cells = Array.make channel_count 0.0 in
            Hashtbl.replace per_window w cells;
            cells
      in
      cells.(f.f_chan.(i)) <- cells.(f.f_chan.(i)) +. f.f_bytes.(i)
    done;
    Buffer.add_string buf
      (Printf.sprintf
         "flight recorder: last %d traffic events%s, windows %d..%d \
          (window %.3f ms)\n"
         f.f_len
         (if f.f_len = f.f_cap then " (ring full, older history dropped)"
          else "")
         !lo !hi (t.window_ns /. 1e6));
    let first = max !lo (!hi - max_dump_windows + 1) in
    if first > !lo then
      Buffer.add_string buf
        (Printf.sprintf "  ... %d earlier window(s) elided ...\n" (first - !lo));
    for w = first to !hi do
      match Hashtbl.find_opt per_window w with
      | None -> ()
      | Some cells ->
          Buffer.add_string buf
            (Printf.sprintf "  [%6.3f ms]" (float_of_int w *. t.window_ns /. 1e6));
          Array.iteri
            (fun ch v ->
              if v > 0.0 then
                Buffer.add_string buf
                  (Printf.sprintf " %s=%.0fB" (channel_name ch) v))
            cells;
          Buffer.add_char buf '\n'
    done
  end;
  let fs = t.flight_samples in
  if fs.fs_len > 0 then begin
    Buffer.add_string buf "  recent samples:\n";
    let first = max 0 (fs.fs_len - max_dump_samples) in
    for k = first to fs.fs_len - 1 do
      let i = (fs.fs_pos - fs.fs_len + k + (2 * fs.fs_cap)) mod fs.fs_cap in
      Buffer.add_string buf
        (Printf.sprintf "  [%6.3f ms] %s = %g\n" (fs.fs_ns.(i) /. 1e6)
           fs.fs_name.(i) fs.fs_value.(i))
    done
  end;
  Buffer.contents buf
