//! The reader side's HTTP/1.1: just enough response framing for the
//! serving tier's answers, and the `/delta` body format.

use fleet::FusedPerson;

/// One framed response at the front of a buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Head {
    pub status: u16,
    pub etag: Option<u64>,
    pub head_len: usize,
    pub body_len: usize,
}

impl Head {
    pub fn total(&self) -> usize {
        self.head_len + self.body_len
    }
}

/// Frames the response at the front of `buf`: `Ok(None)` until its head
/// and whole body have arrived.
pub fn parse_head(buf: &[u8]) -> Result<Option<Head>, String> {
    let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        if buf.len() > 16 * 1024 {
            return Err("response head over 16 KiB".into());
        }
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..end]).map_err(|_| "non-UTF-8 response head")?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status = status_line
        .strip_prefix("HTTP/1.1 ")
        .and_then(|s| s.get(..3))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let mut etag = None;
    let mut body_len = 0usize;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            return Err(format!("bad header line {line:?}"));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            body_len = value
                .parse()
                .map_err(|_| format!("bad Content-Length {value:?}"))?;
        } else if name.eq_ignore_ascii_case("etag") {
            etag = value.trim_matches('"').parse().ok();
        }
    }
    let head_len = end + 4;
    if buf.len() < head_len + body_len {
        return Ok(None);
    }
    Ok(Some(Head {
        status,
        etag,
        head_len,
        body_len,
    }))
}

/// A `/delta?since=N` answer: the epoch it brings the reader to, and
/// the person-level changes (each person as its exact rendered JSON).
#[derive(Debug, Default)]
pub struct Delta<'a> {
    pub seq: u64,
    pub reset: bool,
    pub added: Vec<&'a str>,
    pub removed: Vec<&'a str>,
}

pub fn parse_delta(body: &str) -> Result<Delta<'_>, String> {
    let seq = number_after(body, "\"seq\":").ok_or("delta without seq")?;
    let reset = body.contains("\"reset\":true");
    let (added, removed) = if reset {
        (objects_in(body, "\"people\":[")?, Vec::new())
    } else {
        (
            objects_in(body, "\"added\":[")?,
            objects_in(body, "\"removed\":[")?,
        )
    };
    Ok(Delta {
        seq,
        reset,
        added,
        removed,
    })
}

fn number_after(body: &str, key: &str) -> Option<u64> {
    let rest = &body[body.find(key)? + key.len()..];
    let digits = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..digits].parse().ok()
}

/// The top-level `{…}` objects of the array opened by `key`.
fn objects_in<'a>(body: &'a str, key: &str) -> Result<Vec<&'a str>, String> {
    let start = body
        .find(key)
        .ok_or_else(|| format!("delta without {key}"))?
        + key.len();
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut open = 0usize;
    for (i, b) in body.as_bytes()[start..].iter().enumerate() {
        match b {
            b'{' => {
                if depth == 0 {
                    open = start + i;
                }
                depth += 1;
            }
            b'}' => {
                depth = depth.checked_sub(1).ok_or("unbalanced delta body")?;
                if depth == 0 {
                    out.push(&body[open..=start + i]);
                }
            }
            b']' if depth == 0 => return Ok(out),
            _ => {}
        }
    }
    Err(format!("unterminated {key}"))
}

/// A fused person exactly as the serving tier renders it into `/delta`
/// bodies: three-decimal numbers, non-finite as `null`.
pub fn render_person(p: &FusedPerson) -> String {
    let num = |v: f64| {
        if v.is_finite() {
            format!("{v:.3}")
        } else {
            "null".to_string()
        }
    };
    let observers: Vec<String> = p.observers.iter().map(u32::to_string).collect();
    format!(
        "{{\"x\":{},\"y\":{},\"confidence\":{},\"observers\":[{}]}}",
        num(p.x),
        num(p.y),
        num(p.confidence),
        observers.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_pipelined_responses() {
        let buf = b"HTTP/1.1 304 Not Modified\r\nETag: \"7\"\r\nConnection: keep-alive\r\n\r\n\
HTTP/1.1 200 OK\r\nETag: \"8\"\r\nContent-Type: application/json\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\n{}";
        let a = parse_head(buf).unwrap().unwrap();
        assert_eq!((a.status, a.etag, a.body_len), (304, Some(7), 0));
        let b = parse_head(&buf[a.total()..]).unwrap().unwrap();
        assert_eq!((b.status, b.etag, b.body_len), (200, Some(8), 2));
        assert_eq!(a.total() + b.total(), buf.len());
        assert_eq!(parse_head(&buf[a.total()..buf.len() - 1]).unwrap(), None);
    }

    #[test]
    fn parses_delta_bodies() {
        let p = "{\"x\":1.000,\"y\":2.000,\"confidence\":0.900,\"observers\":[0,1]}";
        let body =
            format!("{{\"since\":3,\"seq\":5,\"reset\":false,\"added\":[{p},{p}],\"removed\":[]}}");
        let d = parse_delta(&body).unwrap();
        assert_eq!(
            (d.seq, d.reset, d.added.len(), d.removed.len()),
            (5, false, 2, 0)
        );
        assert_eq!(d.added[0], p);
        let person = FusedPerson {
            x: 1.0,
            y: 2.0,
            confidence: 0.9,
            observers: vec![0, 1],
        };
        assert_eq!(render_person(&person), p);
        let reset = format!("{{\"since\":0,\"seq\":1,\"reset\":true,\"people\":[{p}]}}");
        let d = parse_delta(&reset).unwrap();
        assert!(d.reset && d.added == vec![p]);
    }
}
