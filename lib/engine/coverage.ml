let union_into dst src =
  for i = 0 to min (Bytes.length dst) (Bytes.length src) - 1 do
    Bytes.set dst i (Char.chr (Char.code (Bytes.get dst i) lor Char.code (Bytes.get src i)))
  done

let union vs =
  let acc = Bytes.make (List.fold_left (fun n v -> max n (Bytes.length v)) 0 vs) '\000' in
  List.iter (union_into acc) vs;
  acc

let popcount v =
  let rec bits x n = if x = 0 then n else bits (x land (x - 1)) (n + 1) in
  Bytes.fold_left (fun n c -> bits (Char.code c) n) 0 v

let ratio ~coverable covered =
  if coverable <= 0 then 1.0 else float_of_int covered /. float_of_int coverable

let fraction ~coverable v = ratio ~coverable (popcount v)
