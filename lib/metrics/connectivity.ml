let preserves ~reference g = Graphkit.Traversal.same_partition reference g

let nb_components = Graphkit.Traversal.nb_components
