type member = { m_index : int; m_rows : int; m_tag : int }

type 'r placement = {
  p_member : member;
  p_result : 'r;
  p_batch : int;
  p_rows : int;
  p_off : int;
  p_len : int;
}

let m_bisections = Obs.Metrics.counter "batch.bisections"
let m_isolated = Obs.Metrics.counter "batch.isolated"

let split_half ms =
  let n = List.length ms in
  let k = (n + 1) / 2 in
  let rec go i acc = function
    | rest when i = k -> (List.rev acc, rest)
    | x :: rest -> go (i + 1) (x :: acc) rest
    | [] -> (List.rev acc, [])
  in
  go 0 [] ms

let placements_of ms result =
  let batch = List.length ms in
  let rows = List.fold_left (fun acc m -> acc + m.m_rows) 0 ms in
  let _, ps =
    List.fold_left
      (fun (off, acc) m ->
        ( off + m.m_rows,
          {
            p_member = m;
            p_result = result;
            p_batch = batch;
            p_rows = rows;
            p_off = off;
            p_len = m.m_rows;
          }
          :: acc ))
      (0, []) ms
  in
  List.rev ps

let execute ~run ~members =
  if members = [] then invalid_arg "Serve.Bisect.execute: empty member list";
  let nruns = ref 0 in
  let rec go ms =
    incr nruns;
    let rows = List.fold_left (fun acc m -> acc + m.m_rows) 0 ms in
    match run ms ~rows with
    | `Served result -> placements_of ms result
    | `Split result -> (
        match ms with
        | [ m ] ->
            (* Fully isolated: the failure is this member's alone. *)
            Obs.Metrics.incr m_isolated;
            [
              {
                p_member = m;
                p_result = result;
                p_batch = 1;
                p_rows = m.m_rows;
                p_off = 0;
                p_len = m.m_rows;
              };
            ]
        | _ ->
            Obs.Metrics.incr m_bisections;
            let left, right = split_half ms in
            go left @ go right)
  in
  let ps = go members in
  (ps, !nruns)
