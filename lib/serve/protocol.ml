type command =
  | Blank
  | Begin
  | Write
  | Commit
  | Abort
  | Read
  | Recovered
  | Stat
  | Quit
  | Malformed

(* No command has more than five words; a longer line is malformed
   whatever its words, so only its count matters. *)
let max_words = 5

type line = {
  mutable buf : Bytes.t;
  starts : int array;
  stops : int array;
  mutable words : int;
}

let line () =
  {
    buf = Bytes.empty;
    starts = Array.make max_words 0;
    stops = Array.make max_words 0;
    words = 0;
  }

(* [String.trim]'s whitespace *)
let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

(* The bytes of [b] from [pos] spell [verb] (upper case) in any case,
   from its [i]th letter on. *)
let rec same_upper b pos verb i =
  i = String.length verb
  || Char.uppercase_ascii (Bytes.unsafe_get b (pos + i))
     = String.unsafe_get verb i
     && same_upper b pos verb (i + 1)

let is l i verb =
  l.stops.(i) - l.starts.(i) = String.length verb
  && same_upper l.buf l.starts.(i) verb 0

(* Records the words of the trimmed [b.[i, j)]: the runs of bytes
   other than ' ' (a tab or CR inside the line belongs to a word). *)
let rec split l b i j =
  if i < j then
    if Bytes.unsafe_get b i = ' ' then split l b (i + 1) j
    else begin
      let k = ref i in
      while !k < j && Bytes.unsafe_get b !k <> ' ' do
        incr k
      done;
      if l.words < max_words then begin
        l.starts.(l.words) <- i;
        l.stops.(l.words) <- !k
      end;
      l.words <- l.words + 1;
      split l b !k j
    end

let parse l b ~start ~stop =
  let i = ref start and j = ref stop in
  while !i < !j && is_space (Bytes.unsafe_get b !i) do
    incr i
  done;
  while !j > !i && is_space (Bytes.unsafe_get b (!j - 1)) do
    decr j
  done;
  l.buf <- b;
  l.words <- 0;
  split l b !i !j;
  match l.words with
  | 0 -> Blank
  | 1 ->
    if is l 0 "RECOVERED" then Recovered
    else if is l 0 "STAT" then Stat
    else if is l 0 "QUIT" then Quit
    else Malformed
  | 2 ->
    if is l 0 "BEGIN" then Begin
    else if is l 0 "COMMIT" then Commit
    else if is l 0 "ABORT" then Abort
    else if is l 0 "READ" then Read
    else Malformed
  | 4 | 5 -> if is l 0 "WRITE" then Write else Malformed
  | _ -> Malformed

let arity l = l.words - 1

let word l i = Bytes.sub_string l.buf l.starts.(i) (l.stops.(i) - l.starts.(i))

(* The plain digits [b.[i, stop)] as an int accumulated onto [n], or -1
   at the first byte that is not a digit. *)
let rec digits b i stop n =
  if i = stop then n
  else
    match Bytes.unsafe_get b i with
    | '0' .. '9' as c -> digits b (i + 1) stop ((n * 10) + Char.code c - 48)
    | _ -> -1

(* 18 digits cannot overflow; 19 can, and go the slow way. *)
let max_digits = 18

let arg l i =
  let start = l.starts.(i) and stop = l.stops.(i) in
  let n = if stop - start <= max_digits then digits l.buf start stop 0 else -1 in
  if n >= 0 then n
  else
    match int_of_string_opt (word l i) with
    | Some n when n >= 0 -> n
    | Some _ | None -> -1

type out = Chan of out_channel | Buf of Buffer.t

let put o s =
  match o with Chan oc -> output_string oc s | Buf b -> Buffer.add_string b s

let put_char o c =
  match o with Chan oc -> output_char oc c | Buf b -> Buffer.add_char b c

let rec put_digits o n =
  if n >= 10 then put_digits o (n / 10);
  put_char o (Char.unsafe_chr (48 + (n mod 10)))

let put_int o n = if n >= 0 then put_digits o n else put o (string_of_int n)
