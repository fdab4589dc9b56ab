(** Convex hulls (Andrew's monotone chain).

    Used to analyze {e boundary nodes}: a CBTC node that ends at maximum
    power with a cone gap is typically near the deployment's edge, and
    the convex hull makes that notion precise. *)

(** [hull_indices points] is the hull of [points] as indices into the
    array, in counterclockwise order starting from the lowest-leftmost
    point, without repeating the first point.  Collinear points on hull
    edges are excluded.  Degenerate inputs (fewer than 3 distinct
    points, or all collinear) return the extreme points found. *)
val hull_indices : Vec2.t array -> int list
