let to_discovery (d : Discovery.t) = d
