(** A stub kept only for the benchmark harness, which calls
    [Memo.clear Analysis.Case.shared_memo] before every timed op
    ([perfbench/common.ml]).  Nothing reads or fills it. *)
module Memo : sig
  type 'b t = unit

  val create : unit -> 'b t
  val clear : 'b t -> unit
end
