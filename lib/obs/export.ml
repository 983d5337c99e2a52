(* Number rendering shared by both formats: integral values print with
   no fractional part so counters look like counts, everything else
   keeps enough digits to round-trip a latency sum. *)
let fmt_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

let fmt_bound b = Printf.sprintf "%g" b

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition.                                         *)

let escape_label v =
  let buf = Buffer.create (String.length v + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let escape_help v =
  let buf = Buffer.create (String.length v + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let header buf name help kind =
  if help <> "" then
    Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name (escape_help help));
  Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)

let prom_histogram buf name labels (h : Histogram.t) =
  let with_le le =
    let le = Printf.sprintf "le=\"%s\"" le in
    match labels with "" -> le | l -> l ^ "," ^ le
  in
  List.iter
    (fun (b, c) ->
      Buffer.add_string buf
        (Printf.sprintf "%s_bucket{%s} %d\n" name (with_le (fmt_bound b)) c))
    (Histogram.cumulative h);
  Buffer.add_string buf
    (Printf.sprintf "%s_bucket{%s} %d\n" name (with_le "+Inf") (Histogram.count h));
  let subscript suffix v =
    match labels with
    | "" -> Printf.sprintf "%s_%s %s\n" name suffix v
    | l -> Printf.sprintf "%s_%s{%s} %s\n" name suffix l v
  in
  Buffer.add_string buf (subscript "sum" (fmt_num (Histogram.sum h)));
  Buffer.add_string buf (subscript "count" (string_of_int (Histogram.count h)))

let to_prometheus registry =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (name, metric) ->
      match metric with
      | Registry.Counter c ->
          header buf name (Counter.help c) "counter";
          Buffer.add_string buf
            (Printf.sprintf "%s %s\n" name (fmt_num (Counter.value c)))
      | Registry.Labeled_counter lc ->
          header buf name (Counter.Labeled.help lc) "counter";
          List.iter
            (fun (lv, c) ->
              Buffer.add_string buf
                (Printf.sprintf "%s{%s=\"%s\"} %s\n" name
                   (Counter.Labeled.label lc) (escape_label lv)
                   (fmt_num (Counter.value c))))
            (Counter.Labeled.children lc)
      | Registry.Gauge g ->
          header buf name (Gauge.help g) "gauge";
          Buffer.add_string buf
            (Printf.sprintf "%s %s\n" name (fmt_num (Gauge.value g)))
      | Registry.Histogram h ->
          header buf name (Histogram.help h) "histogram";
          prom_histogram buf name "" h
      | Registry.Labeled_histogram lh ->
          header buf name (Histogram.Labeled.help lh) "histogram";
          List.iter
            (fun (lv, h) ->
              let labels =
                Printf.sprintf "%s=\"%s\"" (Histogram.Labeled.label lh)
                  (escape_label lv)
              in
              prom_histogram buf name labels h)
            (Histogram.Labeled.children lh))
    (Registry.metrics registry);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* JSON dump.                                                          *)

let json_counter ~name ~help ?label_pair value =
  let labels =
    match label_pair with
    | None -> ""
    | Some (k, v) ->
        Printf.sprintf ", \"label\": %s, \"value_of_label\": %s" (Jsonv.escape k)
          (Jsonv.escape v)
  in
  Printf.sprintf "{\"name\": %s, \"help\": %s%s, \"value\": %s}"
    (Jsonv.escape name) (Jsonv.escape help) labels (fmt_num value)

let json_histogram ~name ~help ?label_pair (h : Histogram.t) =
  let labels =
    match label_pair with
    | None -> ""
    | Some (k, v) ->
        Printf.sprintf ", \"label\": %s, \"value_of_label\": %s" (Jsonv.escape k)
          (Jsonv.escape v)
  in
  let buckets =
    (List.map
       (fun (b, c) -> Printf.sprintf "{\"le\": %s, \"count\": %d}" (fmt_bound b) c)
       (Histogram.cumulative h)
    @ [ Printf.sprintf "{\"le\": \"+Inf\", \"count\": %d}" (Histogram.count h) ])
    |> String.concat ", "
  in
  Printf.sprintf
    "{\"name\": %s, \"help\": %s%s, \"buckets\": [%s], \"sum\": %s, \"count\": %d}"
    (Jsonv.escape name) (Jsonv.escape help) labels buckets
    (fmt_num (Histogram.sum h)) (Histogram.count h)

let to_json registry =
  let counters = ref [] and gauges = ref [] and histograms = ref [] in
  List.iter
    (fun (name, metric) ->
      match metric with
      | Registry.Counter c ->
          counters := json_counter ~name ~help:(Counter.help c) (Counter.value c)
                      :: !counters
      | Registry.Labeled_counter lc ->
          List.iter
            (fun (lv, c) ->
              counters :=
                json_counter ~name ~help:(Counter.Labeled.help lc)
                  ~label_pair:(Counter.Labeled.label lc, lv)
                  (Counter.value c)
                :: !counters)
            (Counter.Labeled.children lc)
      | Registry.Gauge g ->
          gauges := json_counter ~name ~help:(Gauge.help g) (Gauge.value g)
                    :: !gauges
      | Registry.Histogram h ->
          histograms := json_histogram ~name ~help:(Histogram.help h) h
                        :: !histograms
      | Registry.Labeled_histogram lh ->
          List.iter
            (fun (lv, h) ->
              histograms :=
                json_histogram ~name ~help:(Histogram.Labeled.help lh)
                  ~label_pair:(Histogram.Labeled.label lh, lv)
                  h
                :: !histograms)
            (Histogram.Labeled.children lh))
    (Registry.metrics registry);
  Printf.sprintf
    "{\"counters\": [%s],\n \"gauges\": [%s],\n \"histograms\": [%s]}\n"
    (String.concat ",\n  " (List.rev !counters))
    (String.concat ",\n  " (List.rev !gauges))
    (String.concat ",\n  " (List.rev !histograms))

let write_file registry path =
  let body =
    if Filename.check_suffix path ".json" then to_json registry
    else to_prometheus registry
  in
  let oc = open_out path in
  output_string oc body;
  close_out oc
