module Memo = struct
  type 'b t = unit

  let create () = ()
  let clear () = ()
end
