"""numpy network layers with explicit backward passes: `functional` (the ops
and parameter init), `encoder` (the transformer), `bilstm` and `adam`. Import
each name from the submodule that defines it."""
