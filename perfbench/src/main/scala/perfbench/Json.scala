package perfbench

/** Minimal JSON rendering for result and trace files: objects with
  * ordered keys, sequences, strings, numbers and booleans.
  */
object Json {

  /** An object whose keys keep the order they are given in. */
  final case class Obj(fields: (String, Any)*)

  def render(v: Any): String = v match {
    case Obj(fields @ _*) => fields.map { case (k, x) => quote(k) + ":" + render(x) }.mkString("{", ",", "}")
    case s: String => quote(s)
    case b: Boolean => b.toString
    case d: Double =>
      require(!d.isNaN && !d.isInfinite, s"JSON has no $d")
      d.toString
    case n: Int => n.toString
    case n: Long => n.toString
    case xs: Iterable[_] => xs.map(render).mkString("[", ",", "]")
    case other => throw new IllegalArgumentException(s"no JSON form for ${other.getClass}")
  }

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"' => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c => b += c
    }
    b += '"'
    b.toString
  }
}
