//! A small blocking client over the versioned wire API — the same typed
//! surface the daemon speaks, used by the bench CLI and tests (and a template
//! for clients in other languages: one JSON line out, one JSON line back).

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

use eagle_opgraph::OpGraph;

use crate::api::{
    self, PlaceRequest, PlaceResponse, RegisterGraphRequest, Request, Response, API_SCHEMA_VERSION,
};
use crate::error::EagleError;

/// A blocking connection to an `eagle-serve` daemon.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a running daemon.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, EagleError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Self { reader: BufReader::new(stream), writer })
    }

    fn roundtrip(&mut self, req: &Request) -> Result<Response, EagleError> {
        let mut line = api::encode_request(req);
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(EagleError::Protocol("server closed the connection".into()));
        }
        api::decode_response(reply.trim_end())
    }

    /// Registers `graph`, returning the key for subsequent
    /// [`PlaceRequest::by_key`] calls.
    pub fn register_graph(&mut self, graph: &OpGraph) -> Result<String, EagleError> {
        let req = Request::RegisterGraph(RegisterGraphRequest {
            schema_version: API_SCHEMA_VERSION,
            id: 0,
            graph: graph.clone(),
        });
        match self.roundtrip(&req)? {
            Response::RegisterGraph(r) => match (r.graph_key, r.error) {
                (Some(key), None) => Ok(key),
                (_, Some(err)) => {
                    Err(EagleError::BadRequest(format!("{:?}: {}", err.code, err.message)))
                }
                (None, None) => {
                    Err(EagleError::Protocol("reply carries neither key nor error".into()))
                }
            },
            Response::Place(_) => {
                Err(EagleError::Protocol("expected register_graph_result".into()))
            }
        }
    }

    /// Sends one placement request and waits for its reply. The reply may
    /// carry a typed `error`; [`PlaceResponse`] is returned either way so
    /// callers can inspect the code.
    pub fn place(&mut self, req: PlaceRequest) -> Result<PlaceResponse, EagleError> {
        match self.roundtrip(&Request::Place(req))? {
            Response::Place(r) => Ok(r),
            Response::RegisterGraph(_) => Err(EagleError::Protocol("expected place_result".into())),
        }
    }
}
